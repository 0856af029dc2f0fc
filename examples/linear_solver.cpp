// The paper's Figure 3 walkthrough: building the Linear Equation Solver
// with the Application Editor, step by step.
//
// Demonstrates: menu browsing, task mode (adding/placing icons), link
// mode (wiring the dataflow), the task-properties popup (parallel mode,
// machine-type preference), storing/reloading the AFG, DOT export, run
// mode submission, scheduling, execution over *real TCP sockets*, and
// the comparative visualization service.
#include <iostream>

#include "bench/harness.hpp"
#include "common/log.hpp"
#include "editor/editor.hpp"
#include "runtime/engine.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/static_sim.hpp"
#include "sim/workloads.hpp"
#include "viz/comparative.hpp"
#include "viz/gantt.hpp"

int main() {
  using namespace vdce;

  auto vdce = bench::bring_up(netsim::make_campus_testbed(/*seed=*/7));
  const auto& registry = tasklib::builtin_registry();

  // ---- browse the task library menus -------------------------------
  editor::ApplicationEditor ed(registry, "linear_solver");
  std::cout << "task library menus:\n";
  for (const auto& menu : ed.menus()) {
    std::cout << "  [" << menu << "]";
    for (const auto& t : ed.menu_tasks(menu)) std::cout << " " << t;
    std::cout << "\n";
  }

  // ---- task mode: drop the icons on the canvas -----------------------
  ed.set_mode(editor::EditorMode::kTask);
  const auto a = ed.add_task("matrix_generate", "A", {10, 10});
  const auto b = ed.add_task("vector_generate", "b", {90, 10});
  const auto lu = ed.add_task("lu_decomposition", "LU", {10, 30});
  const auto low = ed.add_task("lu_lower", "L", {0, 50});
  const auto up = ed.add_task("lu_upper", "U", {20, 50});
  const auto li = ed.add_task("matrix_inversion", "L_inv", {0, 70});
  const auto ui = ed.add_task("matrix_inversion", "U_inv", {20, 70});
  const auto pb = ed.add_task("permute_vector", "Pb", {60, 50});
  const auto y = ed.add_task("matrix_vector_multiply", "y", {40, 80});
  const auto x = ed.add_task("matrix_vector_multiply", "x", {40, 95});
  const auto res = ed.add_task("residual_check", "residual", {60, 110});

  // ---- link mode: wire the dataflow (input-port order matters) -------
  ed.set_mode(editor::EditorMode::kLink);
  ed.connect(a, lu);
  ed.connect(lu, low);
  ed.connect(lu, up);
  ed.connect(low, li);
  ed.connect(up, ui);
  ed.connect(lu, pb);   // permute_vector(LU, b)
  ed.connect(b, pb);
  ed.connect(li, y);    // y = L_inv * Pb
  ed.connect(pb, y);
  ed.connect(ui, x);    // x = U_inv * y
  ed.connect(y, x);
  ed.connect(a, res);   // residual_check(A, x, b)
  ed.connect(x, res);
  ed.connect(b, res);

  // ---- the task-properties popup (Figure 3, right panel) -------------
  // "for the LU Decomposition task ... the user has selected parallel
  //  execution mode using two nodes of Solaris machines".
  ed.set_mode(editor::EditorMode::kTask);
  afg::TaskProperties lu_props;
  lu_props.mode = afg::ComputeMode::kParallel;
  lu_props.num_processors = 2;
  lu_props.preferred_os = repo::OsType::kSolaris;
  ed.set_properties(lu, lu_props);

  // ---- store the AFG for future use, reload it, export DOT ----------
  ed.save("/tmp/linear_solver.afg");
  auto reloaded = editor::ApplicationEditor::load(registry,
                                                  "/tmp/linear_solver.afg");
  std::cout << "\nstored AFG reloaded: " << reloaded.graph().task_count()
            << " tasks\n\nGraphviz DOT:\n" << ed.to_dot();

  // ---- run mode: submit, schedule, execute ----------------------------
  ed.set_mode(editor::EditorMode::kRun);
  const afg::FlowGraph graph = ed.submit();

  sched::SiteScheduler scheduler(vdce.site_managers[0]->site(),
                                 vdce.directory);
  const auto allocation = scheduler.schedule(graph);
  std::cout << "\nLU assigned to " << allocation.entry(lu).hosts.size()
            << " machines (parallel mode) at site "
            << allocation.entry(lu).site.value() << "\n";

  // Execute over real TCP loopback sockets.
  rt::EngineConfig config;
  config.transport = dm::TransportKind::kTcp;
  config.library = dm::MpLibrary::kPvm;  // exercise the PVM facade
  rt::ExecutionEngine engine(registry, config);
  const auto result = engine.execute(graph, allocation,
                                     vdce.site_managers[0].get());
  std::cout << "\nexecution over TCP sockets with the PVM facade:\n"
            << viz::render_run_table(result);
  std::cout << "residual = " << result.outputs.at(res).as_scalar() << "\n";

  // ---- comparative visualization: problem-size scaling ---------------
  viz::ComparativeViz comparison;
  for (const double scale : {0.5, 1.0, 2.0}) {
    auto universe = bench::bring_up(netsim::make_campus_testbed(7), 10.0);
    sim::StaticSimulator sims(*universe.testbed,
                              universe.repositories[0]->tasks());
    sched::SiteScheduler sched_u(universe.site_managers[0]->site(),
                                 universe.directory);
    const auto g = sim::make_linear_solver_graph(scale);
    const auto alloc = sched_u.schedule(g);
    comparison.add_run("N=" + std::to_string(static_cast<int>(32 * scale)),
                       sims.run(g, alloc, /*start_at=*/10.0));
  }
  std::cout << "\ncomparative visualization (matrix order sweep):\n"
            << comparison.render();
  return 0;
}
