// Unit and property tests for the Application Flow Graph: structure,
// validation, levels, and the .afg text format.
#include <gtest/gtest.h>

#include <algorithm>

#include "afg/graph.hpp"
#include "afg/levels.hpp"
#include "afg/serialize.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace vdce::afg {
namespace {

using common::NotFoundError;
using common::ParseError;
using common::StateError;
using common::TaskId;

FlowGraph diamond() {
  // a -> {b, c} -> d
  FlowGraph g("diamond");
  const auto a = g.add_task("synth_source", "a");
  const auto b = g.add_task("synth_compute", "b");
  const auto c = g.add_task("synth_compute", "c");
  const auto d = g.add_task("synth_sink", "d");
  g.add_link(a, b, 1.0);
  g.add_link(a, c, 1.0);
  g.add_link(b, d, 1.0);
  g.add_link(c, d, 1.0);
  return g;
}

// ------------------------------------------------------------ structure

TEST(FlowGraph, AddTaskAssignsUniqueIds) {
  FlowGraph g;
  const auto a = g.add_task("x", "a");
  const auto b = g.add_task("x", "b");
  EXPECT_NE(a, b);
  EXPECT_EQ(g.task_count(), 2u);
}

TEST(FlowGraph, DuplicateLabelRejected) {
  FlowGraph g;
  g.add_task("x", "a");
  EXPECT_THROW(g.add_task("y", "a"), StateError);
}

TEST(FlowGraph, EmptyNamesRejected) {
  FlowGraph g;
  EXPECT_THROW(g.add_task("", "a"), StateError);
  EXPECT_THROW(g.add_task("x", ""), StateError);
}

TEST(FlowGraph, BadPropertiesRejected) {
  FlowGraph g;
  TaskProperties zero_procs;
  zero_procs.num_processors = 0;
  EXPECT_THROW(g.add_task("x", "a", zero_procs), StateError);
  TaskProperties bad_size;
  bad_size.input_size = 0.0;
  EXPECT_THROW(g.add_task("x", "b", bad_size), StateError);
}

TEST(FlowGraph, SelfLoopRejected) {
  FlowGraph g;
  const auto a = g.add_task("x", "a");
  EXPECT_THROW(g.add_link(a, a, 1.0), StateError);
}

TEST(FlowGraph, DuplicateLinkRejected) {
  FlowGraph g;
  const auto a = g.add_task("x", "a");
  const auto b = g.add_task("x", "b");
  g.add_link(a, b, 1.0);
  EXPECT_THROW(g.add_link(a, b, 2.0), StateError);
}

TEST(FlowGraph, UnknownEndpointRejected) {
  FlowGraph g;
  const auto a = g.add_task("x", "a");
  EXPECT_THROW(g.add_link(a, TaskId(99), 1.0), NotFoundError);
}

TEST(FlowGraph, NegativeTransferRejected) {
  FlowGraph g;
  const auto a = g.add_task("x", "a");
  const auto b = g.add_task("x", "b");
  EXPECT_THROW(g.add_link(a, b, -1.0), StateError);
}

TEST(FlowGraph, ParentsAndChildren) {
  const auto g = diamond();
  const auto a = *g.find_by_label("a");
  const auto d = *g.find_by_label("d");
  EXPECT_EQ(g.parents(a).size(), 0u);
  EXPECT_EQ(g.children(a).size(), 2u);
  EXPECT_EQ(g.parents(d).size(), 2u);
  EXPECT_EQ(g.children(d).size(), 0u);
}

TEST(FlowGraph, OrderedParentsFollowLinkInsertion) {
  FlowGraph g;
  const auto a = g.add_task("x", "a");
  const auto b = g.add_task("x", "b");
  const auto c = g.add_task("x", "c");
  // Insert the link from the *higher-id* parent first.
  g.add_link(b, c, 1.0);
  g.add_link(a, c, 1.0);
  const auto ordered = g.ordered_parents(c);
  ASSERT_EQ(ordered.size(), 2u);
  EXPECT_EQ(ordered[0], b);
  EXPECT_EQ(ordered[1], a);
  // Sorted accessor unaffected.
  const auto sorted = g.parents(c);
  EXPECT_EQ(sorted[0], a);
  EXPECT_EQ(sorted[1], b);
}

TEST(FlowGraph, SetLinkTransferKeepsOrder) {
  FlowGraph g;
  const auto a = g.add_task("x", "a");
  const auto b = g.add_task("x", "b");
  const auto c = g.add_task("x", "c");
  g.add_link(b, c, 1.0);
  g.add_link(a, c, 1.0);
  g.set_link_transfer(b, c, 9.0);
  EXPECT_DOUBLE_EQ(g.link(b, c).transfer_mb, 9.0);
  EXPECT_EQ(g.ordered_parents(c)[0], b);  // position preserved
  EXPECT_THROW(g.set_link_transfer(a, b, 1.0), NotFoundError);
}

TEST(FlowGraph, RemoveTaskDropsLinks) {
  auto g = diamond();
  const auto b = *g.find_by_label("b");
  g.remove_task(b);
  EXPECT_EQ(g.task_count(), 3u);
  EXPECT_EQ(g.link_count(), 2u);  // a->c, c->d remain
  EXPECT_FALSE(g.find_by_label("b").has_value());
  // Label is reusable.
  EXPECT_NO_THROW(g.add_task("x", "b"));
}

TEST(FlowGraph, RemoveLink) {
  auto g = diamond();
  const auto a = *g.find_by_label("a");
  const auto b = *g.find_by_label("b");
  g.remove_link(a, b);
  EXPECT_EQ(g.link_count(), 3u);
  EXPECT_THROW(g.remove_link(a, b), NotFoundError);
}

TEST(FlowGraph, EntryAndExitTasks) {
  const auto g = diamond();
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
  EXPECT_EQ(g.entry_tasks()[0], *g.find_by_label("a"));
  EXPECT_EQ(g.exit_tasks()[0], *g.find_by_label("d"));
}

// ------------------------------------------------------------ validity

TEST(FlowGraph, DiamondIsDag) {
  EXPECT_TRUE(diamond().is_dag());
  EXPECT_NO_THROW(diamond().validate());
}

TEST(FlowGraph, CycleDetected) {
  FlowGraph g;
  const auto a = g.add_task("x", "a");
  const auto b = g.add_task("x", "b");
  const auto c = g.add_task("x", "c");
  g.add_link(a, b, 1.0);
  g.add_link(b, c, 1.0);
  g.add_link(c, a, 1.0);
  EXPECT_FALSE(g.is_dag());
  EXPECT_THROW(g.validate(), StateError);
  EXPECT_THROW((void)g.topological_order(), StateError);
}

TEST(FlowGraph, EmptyGraphInvalid) {
  FlowGraph g;
  EXPECT_THROW(g.validate(), StateError);
}

TEST(FlowGraph, SequentialModeWithManyProcsInvalid) {
  FlowGraph g;
  TaskProperties props;
  props.mode = ComputeMode::kSequential;
  props.num_processors = 4;
  g.add_task("x", "a", props);
  EXPECT_THROW(g.validate(), StateError);
}

TEST(FlowGraph, TopologicalOrderRespectsLinks) {
  const auto g = diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  const auto pos = [&](TaskId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  for (const Link& l : g.links()) {
    EXPECT_LT(pos(l.from), pos(l.to));
  }
}

// Property test: random layered DAGs are always valid and sort cleanly.
TEST(FlowGraphProperty, RandomDagsAreValid) {
  common::Rng rng(321);
  for (int trial = 0; trial < 30; ++trial) {
    FlowGraph g;
    const std::size_t n = 3 + rng.uniform_int(20);
    std::vector<TaskId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(g.add_task("x", "n" + std::to_string(i)));
    }
    // Only forward links (i -> j for i < j): acyclic by construction.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.bernoulli(0.2)) g.add_link(ids[i], ids[j], rng.uniform());
      }
    }
    EXPECT_TRUE(g.is_dag());
    const auto order = g.topological_order();
    EXPECT_EQ(order.size(), n);
    const auto pos = [&](TaskId id) {
      return std::find(order.begin(), order.end(), id) - order.begin();
    };
    for (const Link& l : g.links()) EXPECT_LT(pos(l.from), pos(l.to));
  }
}

// -------------------------------------------------------------- levels

TEST(Levels, ChainSumsCosts) {
  FlowGraph g;
  const auto a = g.add_task("x", "a");
  const auto b = g.add_task("x", "b");
  const auto c = g.add_task("x", "c");
  g.add_link(a, b, 0.0);
  g.add_link(b, c, 0.0);
  const auto levels = compute_levels(g, [](const TaskNode&) { return 2.0; });
  EXPECT_DOUBLE_EQ(levels.at(c), 2.0);
  EXPECT_DOUBLE_EQ(levels.at(b), 4.0);
  EXPECT_DOUBLE_EQ(levels.at(a), 6.0);
}

TEST(Levels, TakesLongestPath) {
  // a -> b -> d ; a -> c -> d with c twice as expensive.
  FlowGraph g;
  const auto a = g.add_task("x", "a");
  const auto b = g.add_task("x", "b");
  const auto c = g.add_task("x", "c");
  const auto d = g.add_task("x", "d");
  g.add_link(a, b, 0.0);
  g.add_link(a, c, 0.0);
  g.add_link(b, d, 0.0);
  g.add_link(c, d, 0.0);
  const auto levels = compute_levels(g, [&](const TaskNode& n) {
    return n.id == c ? 4.0 : 1.0;
  });
  EXPECT_DOUBLE_EQ(levels.at(d), 1.0);
  EXPECT_DOUBLE_EQ(levels.at(b), 2.0);
  EXPECT_DOUBLE_EQ(levels.at(c), 5.0);
  EXPECT_DOUBLE_EQ(levels.at(a), 6.0);  // via c
}

TEST(Levels, PriorityOrderDescending) {
  const auto g = diamond();
  const auto levels = compute_levels(g, [](const TaskNode&) { return 1.0; });
  const auto order = priority_order(g, levels);
  // Entry first (highest level), exit last.
  EXPECT_EQ(order.front(), *g.find_by_label("a"));
  EXPECT_EQ(order.back(), *g.find_by_label("d"));
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(levels.at(order[i - 1]), levels.at(order[i]));
  }
}

TEST(Levels, CriticalPathLength) {
  const auto g = diamond();
  const auto levels = compute_levels(g, [](const TaskNode&) { return 1.0; });
  EXPECT_DOUBLE_EQ(critical_path_length(g, levels), 3.0);  // a,b|c,d
}

// Property: level of a parent is strictly greater than each child's
// (costs positive).
TEST(LevelsProperty, ParentAboveChild) {
  common::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    FlowGraph g;
    const std::size_t n = 4 + rng.uniform_int(12);
    std::vector<TaskId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(g.add_task("x", "n" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.bernoulli(0.25)) g.add_link(ids[i], ids[j], 1.0);
      }
    }
    const auto levels = compute_levels(g, [&](const TaskNode& node) {
      return 0.5 + static_cast<double>(node.id.value() % 5);
    });
    for (const Link& l : g.links()) {
      EXPECT_GT(levels.at(l.from), levels.at(l.to));
    }
  }
}

// ------------------------------------------------------------- serialize

TEST(AfgText, RoundTrip) {
  FlowGraph g("solver");
  TaskProperties props;
  props.mode = ComputeMode::kParallel;
  props.num_processors = 2;
  props.preferred_arch = repo::ArchType::kSparc;
  props.preferred_os = repo::OsType::kSolaris;
  props.input_size = 4.0;
  const auto a = g.add_task("lu_decomposition", "lu1", props);
  const auto b = g.add_task("matrix_inversion", "inv1");
  g.add_link(a, b, 2.5);

  const auto text = to_text(g);
  const auto parsed = from_text(text);
  EXPECT_EQ(parsed.name(), "solver");
  EXPECT_EQ(parsed.task_count(), 2u);
  EXPECT_EQ(parsed.link_count(), 1u);
  const auto lu = *parsed.find_by_label("lu1");
  EXPECT_EQ(parsed.task(lu).props, props);
  const auto inv = *parsed.find_by_label("inv1");
  EXPECT_DOUBLE_EQ(parsed.link(lu, inv).transfer_mb, 2.5);
}

TEST(AfgText, CommentsAndBlanksIgnored) {
  const auto g = from_text(
      "# a comment\n"
      "\n"
      "app demo\n"
      "task a synth_source\n"
      "  # indented comment\n"
      "task b synth_sink size=2\n"
      "link a b 1.5\n");
  EXPECT_EQ(g.name(), "demo");
  EXPECT_EQ(g.task_count(), 2u);
  EXPECT_DOUBLE_EQ(g.task(*g.find_by_label("b")).props.input_size, 2.0);
}

TEST(AfgText, ErrorsCarryLineNumbers) {
  try {
    (void)from_text("app demo\nbogus directive\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(AfgText, UnknownLabelInLink) {
  EXPECT_THROW((void)from_text("task a x\nlink a ghost 1\n"), ParseError);
}

TEST(AfgText, BadPropertyKey) {
  EXPECT_THROW((void)from_text("task a x color=red\n"), ParseError);
}

TEST(AfgText, DuplicateAppLine) {
  EXPECT_THROW((void)from_text("app a\napp b\n"), ParseError);
}

TEST(AfgText, MalformedTaskLine) {
  EXPECT_THROW((void)from_text("task onlylabel\n"), ParseError);
}

TEST(AfgText, FileRoundTrip) {
  const auto g = diamond();
  const std::string path = "/tmp/vdce_afg_test.afg";
  save_file(g, path);
  const auto loaded = load_file(path);
  EXPECT_EQ(loaded.task_count(), g.task_count());
  EXPECT_EQ(loaded.link_count(), g.link_count());
  EXPECT_THROW((void)load_file("/tmp/definitely_missing.afg"),
               NotFoundError);
}

TEST(AfgDot, ContainsNodesAndEdges) {
  const auto dot = to_dot(diamond());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"a\" -> \"b\""), std::string::npos);
  EXPECT_NE(dot.find("synth_sink"), std::string::npos);
}

TEST(AfgText, OutOfRangeProcessorCountIsRejected) {
  // 2^32 + 2 used to wrap around to 2 processors.
  EXPECT_THROW((void)from_text("task a x mode=parallel procs=4294967298\n"),
               ParseError);
  const auto g = from_text("task a x mode=parallel procs=4294967295\n");
  EXPECT_EQ(g.tasks().front().props.num_processors, 4294967295u);
}

// Property: seeded edits of a valid document either parse or throw a
// VdceError -- no other exception, no crash.  AFG text arrives over the
// wire in a HostSelectionRequest.
TEST(AfgTextProperty, GarbageNeverEscapesVdceError) {
  FlowGraph g("solver");
  TaskProperties props;
  props.mode = ComputeMode::kParallel;
  props.num_processors = 2;
  props.preferred_arch = repo::ArchType::kSparc;
  props.preferred_os = repo::OsType::kSolaris;
  props.input_size = 4.0;
  const auto a = g.add_task("lu_decomposition", "lu1", props);
  const auto b = g.add_task("matrix_inversion", "inv1");
  g.add_link(a, b, 2.5);
  const std::string text = to_text(g);
  const std::string alphabet = "0123456789e.-+= \t\n#xnapfi";
  common::Rng rng(556);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string edited = text;
    for (auto n = 1 + rng.uniform_int(6); n > 0; --n) {
      const std::size_t pos = rng.uniform_int(edited.size() + 1);
      const char c = alphabet[rng.uniform_int(alphabet.size())];
      switch (rng.uniform_int(3)) {
        case 0: edited.insert(pos, 1, c); break;
        case 1: if (pos < edited.size()) edited[pos] = c; break;
        default: if (pos < edited.size()) edited.erase(pos, 1); break;
      }
    }
    try {
      (void)from_text(edited);
    } catch (const common::VdceError&) {
      // the only acceptable failure mode
    }
  }
}

// Property: text round trip preserves everything for random graphs.
TEST(AfgTextProperty, RandomRoundTrip) {
  common::Rng rng(555);
  for (int trial = 0; trial < 15; ++trial) {
    FlowGraph g("app" + std::to_string(trial));
    const std::size_t n = 2 + rng.uniform_int(10);
    std::vector<TaskId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      TaskProperties props;
      props.input_size = 0.25 + rng.uniform(0.0, 4.0);
      if (rng.bernoulli(0.3)) {
        props.mode = ComputeMode::kParallel;
        props.num_processors = 1 + static_cast<unsigned>(rng.uniform_int(4));
      }
      ids.push_back(g.add_task("x", "n" + std::to_string(i), props));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.bernoulli(0.3)) g.add_link(ids[i], ids[j], rng.uniform());
      }
    }
    const auto parsed = from_text(to_text(g));
    ASSERT_EQ(parsed.task_count(), g.task_count());
    ASSERT_EQ(parsed.link_count(), g.link_count());
    for (const TaskNode& node : g.tasks()) {
      const auto pid = parsed.find_by_label(node.label);
      ASSERT_TRUE(pid.has_value());
      EXPECT_EQ(parsed.task(*pid).props, node.props);
      EXPECT_EQ(parsed.task(*pid).library_task, node.library_task);
    }
    for (const Link& l : g.links()) {
      const auto from = *parsed.find_by_label(g.task(l.from).label);
      const auto to = *parsed.find_by_label(g.task(l.to).label);
      EXPECT_DOUBLE_EQ(parsed.link(from, to).transfer_mb, l.transfer_mb);
    }
  }
}

}  // namespace
}  // namespace vdce::afg
