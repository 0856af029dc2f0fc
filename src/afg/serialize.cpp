#include "afg/serialize.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace vdce::afg {

using common::NotFoundError;
using common::ParseError;
using common::parse_double;
using common::parse_u32;
using common::split_ws;
using common::starts_with;
using common::trim;

std::string to_text(const FlowGraph& graph) {
  std::ostringstream os;
  os.precision(17);
  os << "# VDCE application flow graph\n";
  os << "app " << graph.name() << "\n";
  for (const TaskNode& t : graph.tasks()) {
    os << "task " << t.label << " " << t.library_task;
    const TaskProperties defaults;
    if (t.props.mode != defaults.mode) {
      os << " mode=" << to_string(t.props.mode);
    }
    if (t.props.num_processors != defaults.num_processors) {
      os << " procs=" << t.props.num_processors;
    }
    if (t.props.preferred_arch) {
      os << " arch=" << repo::to_string(*t.props.preferred_arch);
    }
    if (t.props.preferred_os) {
      os << " os=" << repo::to_string(*t.props.preferred_os);
    }
    if (t.props.input_size != defaults.input_size) {
      os << " size=" << t.props.input_size;
    }
    os << "\n";
  }
  for (const Link& l : graph.links()) {
    os << "link " << graph.task(l.from).label << " " << graph.task(l.to).label
       << " " << l.transfer_mb << "\n";
  }
  return os.str();
}

FlowGraph from_text(const std::string& text) {
  FlowGraph graph;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  bool saw_app = false;

  auto fail = [&](const std::string& msg) -> ParseError {
    return ParseError("afg line " + std::to_string(lineno) + ": " + msg);
  };

  while (std::getline(is, line)) {
    ++lineno;
    const auto t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    const auto fields = split_ws(t);
    const std::string& kw = fields[0];

    if (kw == "app") {
      if (fields.size() != 2) throw fail("expected: app <name>");
      if (saw_app) throw fail("duplicate app line");
      graph.set_name(fields[1]);
      saw_app = true;
    } else if (kw == "task") {
      if (fields.size() < 3) {
        throw fail("expected: task <label> <library_task> [k=v ...]");
      }
      TaskProperties props;
      for (std::size_t i = 3; i < fields.size(); ++i) {
        const auto eq = fields[i].find('=');
        if (eq == std::string::npos) {
          throw fail("expected key=value, got '" + fields[i] + "'");
        }
        const std::string key = fields[i].substr(0, eq);
        const std::string value = fields[i].substr(eq + 1);
        if (key == "mode") {
          props.mode = compute_mode_from_string(value);
        } else if (key == "procs") {
          props.num_processors = parse_u32(value, "task procs");
        } else if (key == "arch") {
          props.preferred_arch = repo::arch_from_string(value);
        } else if (key == "os") {
          props.preferred_os = repo::os_from_string(value);
        } else if (key == "size") {
          props.input_size = parse_double(value, "task size");
        } else {
          throw fail("unknown task property '" + key + "'");
        }
      }
      try {
        graph.add_task(fields[2], fields[1], props);
      } catch (const common::VdceError& e) {
        throw fail(e.what());
      }
    } else if (kw == "link") {
      if (fields.size() != 4) {
        throw fail("expected: link <from> <to> <transfer_mb>");
      }
      const auto from = graph.find_by_label(fields[1]);
      const auto to = graph.find_by_label(fields[2]);
      if (!from) throw fail("unknown task label '" + fields[1] + "'");
      if (!to) throw fail("unknown task label '" + fields[2] + "'");
      try {
        graph.add_link(*from, *to, parse_double(fields[3], "link size"));
      } catch (const common::VdceError& e) {
        throw fail(e.what());
      }
    } else {
      throw fail("unknown directive '" + kw + "'");
    }
  }
  return graph;
}

void save_file(const FlowGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw NotFoundError("cannot write " + path);
  out << to_text(graph);
}

FlowGraph load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw NotFoundError("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_text(buf.str());
}

std::string to_dot(const FlowGraph& graph) {
  std::ostringstream os;
  os << "digraph \"" << graph.name() << "\" {\n";
  os << "  rankdir=TB;\n  node [shape=box];\n";
  for (const TaskNode& t : graph.tasks()) {
    os << "  \"" << t.label << "\" [label=\"" << t.label << "\\n("
       << t.library_task << ")\"];\n";
  }
  for (const Link& l : graph.links()) {
    os << "  \"" << graph.task(l.from).label << "\" -> \""
       << graph.task(l.to).label << "\" [label=\"" << l.transfer_mb
       << " MB\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace vdce::afg
