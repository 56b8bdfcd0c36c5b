(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (Section V), plus Bechamel micro-benchmarks of the core
   primitives.

   Usage:  dune exec bench/main.exe -- [target ...]
   The targets are the names in [targets] below; an unknown name
   prints them. `baseline` and `baseline-check` also take a file path
   (default BENCH_baseline.json in the current directory). Default (no
   argument): quick. *)

open Rcoe_harness

let spin_system ~mode ~nreplicas =
  let a = Rcoe_isa.Asm.create "spin" in
  Rcoe_isa.Asm.label a "main";
  Rcoe_isa.Asm.movi a Rcoe_isa.Reg.R4 0;
  Rcoe_isa.Asm.while_ a Rcoe_isa.Instr.Ge Rcoe_isa.Reg.R4
    (Rcoe_isa.Instr.Imm 0) (fun () ->
      Rcoe_isa.Asm.addi a Rcoe_isa.Reg.R4 Rcoe_isa.Reg.R4 1);
  Rcoe_isa.Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
  let program = Rcoe_isa.Asm.assemble ~entry:"main" a in
  Rcoe_core.System.create
    ~config:
      (Runner.config_for ~mode ~nreplicas ~arch:Rcoe_machine.Arch.X86 ())
    ~program

let micro () =
  Printf.printf
    "\n================================================================\n";
  Printf.printf "Micro-benchmarks of core primitives (Bechamel, wall time)\n";
  Printf.printf
    "================================================================\n%!";
  let open Bechamel in
  (* Fletcher signature accumulation over a 64-word block. *)
  let words = Array.init 64 (fun i -> (i * 2654435761) land 0xFFFFFFFF) in
  let fletcher () =
    let f = Rcoe_checksum.Fletcher.create () in
    Rcoe_checksum.Fletcher.add_words f words;
    Rcoe_checksum.Fletcher.digest f
  in
  let crc () = Rcoe_checksum.Crc32.words words in
  let md5 () = Rcoe_checksum.Md5.words words in
  let base_sys = spin_system ~mode:Rcoe_core.Config.Base ~nreplicas:1 in
  let step_1k () = Rcoe_core.System.run base_sys ~max_cycles:1_000 in
  let lc_sys = spin_system ~mode:Rcoe_core.Config.LC ~nreplicas:3 in
  let step_lc_1k () = Rcoe_core.System.run lc_sys ~max_cycles:1_000 in
  let tests =
    Test.make_grouped ~name:"rcoe"
      [
        Test.make ~name:"fletcher-64w" (Staged.stage fletcher);
        Test.make ~name:"crc32-64w" (Staged.stage crc);
        Test.make ~name:"md5-64w" (Staged.stage md5);
        Test.make ~name:"sim-base-1kcycles" (Staged.stage step_1k);
        Test.make ~name:"sim-lc-tmr-1kcycles" (Staged.stage step_lc_1k);
      ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name r ->
      let est =
        match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "  %-28s %12.1f ns/run\n" name est)
    (List.sort compare !rows);
  print_newline ()

let quick () =
  Perf_experiments.all ~quick:true;
  Fault_experiments.all ~quick:true;
  micro ()

let full () =
  Perf_experiments.all ~quick:false;
  Fault_experiments.all ~quick:false;
  micro ()

let targets =
  [
    ("e1", fun () -> Perf_experiments.e1_datarace ());
    ("table2", fun () -> Perf_experiments.table2 ());
    ("table3", fun () -> Perf_experiments.table3 ());
    ("table4", fun () -> Perf_experiments.table4 ());
    ("table5", fun () -> Perf_experiments.table5 ());
    ("fig3", fun () -> Perf_experiments.fig3 ());
    ("table7x86", fun () -> Fault_experiments.table7 ~variant:`X86 ());
    ("table7arm", fun () -> Fault_experiments.table7 ~variant:`Arm ());
    ("table8", fun () -> Fault_experiments.table8 ());
    ("table9", fun () -> Fault_experiments.table9 ());
    ("table10", fun () -> Perf_experiments.table10 ());
    ("fig4", Perf_experiments.fig4);
    ("latency", fun () -> Fault_experiments.detection_latency ());
    ("ingress", fun () -> ignore (Fault_experiments.ingress_table ()));
    ("micro", micro);
    ("serve", fun () -> Baseline.show "serve");
    ("exec", fun () -> Baseline.show "exec");
    ("replay", fun () -> Baseline.show "replay");
    ("ckpt", fun () -> Baseline.show "ckpt");
    ("baseline", fun () -> Baseline.write ());
    ("baseline-check", fun () -> Baseline.check ());
    ("quick", quick);
    ("all", full);
  ]

let run_target name =
  match List.assoc_opt name targets with
  | Some run -> run ()
  | None ->
      Printf.eprintf "unknown target %S\ntargets: %s\n" name
        (String.concat " " (List.map fst targets));
      exit 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "baseline"; path ] -> Baseline.write ~path ()
  | [ _; "baseline-check"; path ] -> Baseline.check ~path ()
  | _ :: (_ :: _ as names) -> List.iter run_target names
  | _ -> quick ()
