// The VDCE console: a scriptable front-end playing the role of the
// paper's web interface (login -> Editor -> submit -> schedule -> run).
//
// Reads commands from stdin (or a script via `vdce_console < script`):
//
//   login <user> <password>
//   menus                       list the task library menus
//   menu <name>                 list one menu's tasks
//   new <app-name>              start a fresh application
//   task <label> <library_task> add a task (editor task mode)
//   link <from> <to> [mb]       connect tasks (editor link mode)
//   props <label> [mode=parallel] [procs=N] [arch=A] [os=O] [size=S]
//   submit                      validate (editor run mode)
//   qos <deadline_s>            admission check against a deadline
//   schedule [k] [qa] [tN]      run the Application Scheduler
//                               (tN = N scheduling threads; the
//                               allocation is identical for every N)
//   run                         execute on the runtime; show the table
//   show <label>                print a task's output payload summary
//   save <path> / load <path>   store / reload the AFG
//   dot                         print Graphviz DOT
//   status                      editor + allocation summary
//   help / quit
//
// A demo script is executed when stdin is a terminal with no input.
#include <iostream>
#include <optional>
#include <sstream>

#include "bench/harness.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "editor/editor.hpp"
#include "runtime/engine.hpp"
#include "scheduler/qos.hpp"
#include "scheduler/site_scheduler.hpp"
#include "viz/gantt.hpp"

namespace {

using namespace vdce;

struct ConsoleState {
  bench::Vdce vdce;
  std::optional<editor::ApplicationEditor> editor;
  std::optional<afg::FlowGraph> submitted;
  std::optional<sched::AllocationTable> allocation;
  std::optional<rt::RunResult> last_run;
  bool authenticated = false;
};

void describe_payload(const tasklib::Payload& p) {
  using tasklib::PayloadType;
  std::cout << "  type=" << tasklib::to_string(p.type())
            << " bytes=" << p.size_bytes();
  switch (p.type()) {
    case PayloadType::kScalar:
      std::cout << " value=" << p.as_scalar();
      break;
    case PayloadType::kVector:
      std::cout << " length=" << p.as_vector().size();
      break;
    case PayloadType::kMatrix: {
      const auto m = p.as_matrix();
      std::cout << " shape=" << m.rows() << "x" << m.cols();
      break;
    }
    case PayloadType::kTracks:
      std::cout << " tracks=" << p.as_tracks().size();
      break;
    case PayloadType::kThreats:
      std::cout << " threats=" << p.as_threats().size();
      break;
    case PayloadType::kText:
      std::cout << " text=\"" << p.as_text() << "\"";
      break;
    default:
      break;
  }
  std::cout << "\n";
}

afg::TaskProperties parse_props(const std::vector<std::string>& args,
                                std::size_t first,
                                afg::TaskProperties props) {
  for (std::size_t i = first; i < args.size(); ++i) {
    const auto eq = args[i].find('=');
    if (eq == std::string::npos) {
      throw common::ParseError("expected key=value: " + args[i]);
    }
    const auto key = args[i].substr(0, eq);
    const auto value = args[i].substr(eq + 1);
    if (key == "mode") {
      props.mode = afg::compute_mode_from_string(value);
    } else if (key == "procs") {
      props.num_processors = common::parse_u32(value, "procs");
    } else if (key == "arch") {
      props.preferred_arch = repo::arch_from_string(value);
    } else if (key == "os") {
      props.preferred_os = repo::os_from_string(value);
    } else if (key == "size") {
      props.input_size = common::parse_double(value, "size");
    } else {
      throw common::ParseError("unknown property: " + key);
    }
  }
  return props;
}

/// Handles one command line; returns false on quit.
bool handle(ConsoleState& state, const std::string& line) {
  const auto args = common::split_ws(line);
  if (args.empty() || args[0][0] == '#') return true;
  const std::string& cmd = args[0];
  const auto& registry = tasklib::builtin_registry();

  const auto need_editor = [&]() -> editor::ApplicationEditor& {
    if (!state.editor) {
      throw common::StateError("no application open (use: new <name>)");
    }
    return *state.editor;
  };
  const auto label_id = [&](const std::string& label) {
    const auto id = need_editor().graph().find_by_label(label);
    if (!id) throw common::NotFoundError("no task labelled " + label);
    return *id;
  };

  if (cmd == "quit" || cmd == "exit") return false;
  if (cmd == "help") {
    std::cout << "commands: login menus menu new task link props submit qos"
                 " schedule run show save load dot status quit\n";
  } else if (cmd == "login") {
    if (args.size() != 3) throw common::ParseError("login <user> <pw>");
    const auto acct = state.vdce.site_managers[0]->login(args[1], args[2]);
    state.authenticated = true;
    std::cout << "welcome " << acct.user_name << " (domain "
              << acct.access_domain << ")\n";
  } else if (cmd == "menus") {
    for (const auto& menu : registry.menus()) std::cout << menu << "\n";
  } else if (cmd == "menu") {
    if (args.size() != 2) throw common::ParseError("menu <name>");
    for (const auto& t : registry.tasks_in_menu(args[1])) {
      std::cout << t << " - " << registry.get(t).description << "\n";
    }
  } else if (cmd == "new") {
    if (args.size() != 2) throw common::ParseError("new <app-name>");
    state.editor.emplace(registry, args[1]);
    state.submitted.reset();
    state.allocation.reset();
    std::cout << "application '" << args[1] << "' opened\n";
  } else if (cmd == "task") {
    if (args.size() < 3) {
      throw common::ParseError("task <label> <library_task> [k=v...]");
    }
    auto& ed = need_editor();
    ed.set_mode(editor::EditorMode::kTask);
    const auto id = ed.add_task(args[2], args[1]);
    if (args.size() > 3) ed.set_properties(id, parse_props(args, 3, {}));
  } else if (cmd == "link") {
    if (args.size() < 3) throw common::ParseError("link <from> <to> [mb]");
    auto& ed = need_editor();
    const auto from = label_id(args[1]);
    const auto to = label_id(args[2]);
    ed.set_mode(editor::EditorMode::kLink);
    if (args.size() > 3) {
      ed.connect(from, to, common::parse_double(args[3], "link mb"));
    } else {
      ed.connect(from, to);
    }
  } else if (cmd == "props") {
    if (args.size() < 3) throw common::ParseError("props <label> k=v...");
    auto& ed = need_editor();
    const auto id = label_id(args[1]);
    ed.set_mode(editor::EditorMode::kTask);
    ed.set_properties(id, parse_props(args, 2, ed.properties(id)));
  } else if (cmd == "submit") {
    auto& ed = need_editor();
    ed.set_mode(editor::EditorMode::kRun);
    state.submitted = ed.submit();
    std::cout << "submitted: " << state.submitted->task_count()
              << " tasks, " << state.submitted->link_count() << " links\n";
  } else if (cmd == "schedule") {
    if (!state.submitted) throw common::StateError("submit first");
    sched::SiteSchedulerConfig config;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "qa") {
        config.queue_aware = true;
      } else if (args[i].size() > 1 && args[i][0] == 't') {
        config.threads = common::parse_uint(args[i].substr(1), "threads");
      } else {
        config.k_nearest = common::parse_uint(args[i], "k");
      }
    }
    sched::SiteScheduler scheduler(state.vdce.site_managers[0]->site(),
                                   state.vdce.directory, config);
    state.allocation = scheduler.schedule(*state.submitted);
    for (const auto& row : state.allocation->rows()) {
      std::cout << "  " << row.task_label << " -> "
                << state.vdce.testbed->host_spec(row.primary_host()).name
                << " (predicted " << row.predicted_s << "s)\n";
    }
  } else if (cmd == "qos") {
    if (args.size() != 2) throw common::ParseError("qos <deadline_s>");
    if (!state.submitted || !state.allocation) {
      throw common::StateError("schedule first");
    }
    const auto admission = sched::check_qos(
        *state.submitted, *state.allocation, state.vdce.directory,
        sched::QosRequirement{common::parse_double(args[1], "deadline")});
    std::cout << (admission.admitted ? "ADMITTED" : "REJECTED")
              << ": predicted makespan " << admission.predicted_makespan_s
              << "s, slack " << admission.slack_s << "s\n";
  } else if (cmd == "run") {
    if (!state.submitted || !state.allocation) {
      throw common::StateError("schedule first");
    }
    rt::ExecutionEngine engine(registry);
    state.last_run = engine.execute(*state.submitted, *state.allocation,
                                    state.vdce.site_managers[0].get());
    std::cout << viz::render_run_table(*state.last_run);
  } else if (cmd == "show") {
    if (args.size() != 2) throw common::ParseError("show <label>");
    if (!state.last_run) throw common::StateError("run first");
    describe_payload(state.last_run->outputs.at(label_id(args[1])));
  } else if (cmd == "save") {
    if (args.size() != 2) throw common::ParseError("save <path>");
    need_editor().save(args[1]);
  } else if (cmd == "load") {
    if (args.size() != 2) throw common::ParseError("load <path>");
    state.editor.emplace(
        editor::ApplicationEditor::load(registry, args[1]));
    std::cout << "loaded '" << state.editor->graph().name() << "'\n";
  } else if (cmd == "dot") {
    std::cout << need_editor().to_dot();
  } else if (cmd == "status") {
    if (state.editor) {
      std::cout << "app '" << state.editor->graph().name() << "': "
                << state.editor->graph().task_count() << " tasks, "
                << state.editor->graph().link_count() << " links\n";
    } else {
      std::cout << "no application open\n";
    }
    if (state.allocation) {
      std::cout << "allocation: " << state.allocation->size()
                << " rows across "
                << state.allocation->hosts_involved().size() << " hosts\n";
    }
  } else {
    std::cout << "unknown command '" << cmd << "' (try: help)\n";
  }
  return true;
}

constexpr const char* kDemoScript = R"(login hpdc nynet
menus
new demo_solver
task A matrix_generate
task b vector_generate
task x linear_solve
task check residual_check
link A x
link b x
link A check
link x check
link b check
submit
schedule 1 qa
qos 60
run
show x
show check
status
quit
)";

}  // namespace

int main() {
  std::cout << "VDCE console (type 'help'; demo script runs when no input"
               " is piped)\n";
  ConsoleState state{bench::bring_up(netsim::make_campus_testbed(3)),
                     {}, {}, {}, {}, false};

  std::istringstream demo(kDemoScript);
  std::istream& in = std::cin.peek() == EOF
                         ? static_cast<std::istream&>(demo)
                         : std::cin;
  std::string line;
  while (std::getline(in, line)) {
    if (&in == &demo) std::cout << "vdce> " << line << "\n";
    try {
      if (!handle(state, line)) break;
    } catch (const common::VdceError& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  return 0;
}
