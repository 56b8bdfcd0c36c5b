open Rcoe_core
open Rcoe_workloads
open Rcoe_util

let x86 = Rcoe_machine.Arch.X86
let arm = Rcoe_machine.Arch.Arm

let header = Report.header
let mean_cycles ~runs ~config ~program_for =
  let cycles = ref [] in
  for i = 1 to runs do
    let cfg = { config with Config.seed = config.Config.seed + (97 * i) } in
    let r = Runner.run_program ~config:cfg ~program:(program_for ()) () in
    (match r.Runner.halted with
    | Some h ->
        failwith
          (Printf.sprintf "experiment run halted unexpectedly: %s"
             (System.halt_reason_to_string h))
    | None -> ());
    cycles := float_of_int r.Runner.cycles :: !cycles
  done;
  Stats.summarize !cycles

(* ---------------------------------------------------------------- E1 -- *)

let e1_datarace ?(runs = 20) () =
  header "E1 (Section V-A1): tolerating data races"
    "LC replicas' racy counters diverge with high probability; CC never \
     diverges in any run";
  let tbl =
    Table.create ~headers:[ "mode"; "runs"; "diverged"; "agreed" ]
  in
  let run_mode mode =
    let diverged = ref 0 in
    for seed = 1 to runs do
      let cfg =
        Runner.config_for ~mode ~nreplicas:2 ~arch:x86 ~seed
          ~tick_interval:1_500 ()
      in
      let program =
        Datarace.program ~threads:8 ~iters:150 ~locked:false
          ~branch_count:false ()
      in
      let r = Runner.run_program ~config:cfg ~program () in
      let div =
        match r.Runner.halted with
        | Some _ -> true
        | None ->
            let counter rid =
              Rcoe_kernel.Kernel.read_user
                (System.kernel r.Runner.sys rid)
                ~va:(Rcoe_isa.Program.data_addr program Datarace.counter_label)
            in
            counter 0 <> counter 1
      in
      if div then incr diverged
    done;
    !diverged
  in
  let lc = run_mode Config.LC in
  let cc = run_mode Config.CC in
  Table.add_row tbl
    [ "LC-D"; string_of_int runs; string_of_int lc; string_of_int (runs - lc) ];
  Table.add_row tbl
    [ "CC-D"; string_of_int runs; string_of_int cc; string_of_int (runs - cc) ];
  Table.print tbl;
  Printf.printf "(CC diverged %d times; the paper observed 0 in 1000 runs)\n%!" cc

(* ------------------------------------------------------------ Table II -- *)

let bench_programs ~arch =
  let branch_count = Wl.branch_count_for arch in
  [
    ("Dhrystone", fun () -> Dhrystone.program ~loops:2_000 ~branch_count ());
    ("Whetstone", fun () -> Whetstone.program ~loops:100 ~branch_count ());
  ]

let table2 ?(runs = 3) () =
  header "Table II: native Dhrystone and Whetstone execution times"
    "LC negligible overhead; CC ~3-5% on Dhrystone (one long loop) but \
     ~20-40% on Whetstone (tight loops); Arm CC worst (compiler-assisted \
     counting, double debug exceptions)";
  List.iter
    (fun arch ->
      let tbl =
        Table.create
          ~headers:[ "config"; "Dhrystone kcyc"; "fact"; "Whetstone kcyc"; "fact" ]
      in
      let base = Hashtbl.create 4 in
      List.iter
        (fun (cfg_name, config) ->
          let cells =
            List.concat_map
              (fun (bench, program_for) ->
                let s = mean_cycles ~runs ~config ~program_for in
                if cfg_name = "Base" then Hashtbl.replace base bench s.Stats.mean;
                let b = Hashtbl.find base bench in
                [
                  Stats.format_paper ~decimals:0
                    {
                      s with
                      Stats.mean = s.Stats.mean /. 1000.0;
                      stddev = s.Stats.stddev /. 1000.0;
                    };
                  Printf.sprintf "%.3f" (s.Stats.mean /. b);
                ])
              (bench_programs ~arch)
          in
          Table.add_row tbl (cfg_name :: cells))
        (Runner.standard_configs ~arch);
      Printf.printf "\n-- %s --\n" (Rcoe_machine.Arch.to_string arch);
      Table.print tbl)
    [ x86; arm ]

(* ----------------------------------------------------------- Table III -- *)

let table3 ?(runs = 3) () =
  header "Table III: virtualised Dhrystone/Whetstone under CC-RCoE (x86)"
    "VM exits forced by CC breakpoints dominate: Dhrystone ~1.5x, \
     Whetstone ~2-3x over the virtualised baseline";
  let tbl =
    Table.create
      ~headers:[ "config"; "Dhrystone kcyc"; "fact"; "Whetstone kcyc"; "fact" ]
  in
  let base = Hashtbl.create 4 in
  let configs =
    [
      ("Base (VM)", Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 ~vm:true ());
      ("CC-D (VM)", Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ~vm:true ());
    ]
  in
  List.iter
    (fun (cfg_name, config) ->
      let cells =
        List.concat_map
          (fun (bench, program_for) ->
            let s = mean_cycles ~runs ~config ~program_for in
            if String.length cfg_name >= 4 && String.sub cfg_name 0 4 = "Base" then
              Hashtbl.replace base bench s.Stats.mean;
            let b = Hashtbl.find base bench in
            [
              Printf.sprintf "%.0f" (s.Stats.mean /. 1000.0);
              Printf.sprintf "%.2f" (s.Stats.mean /. b);
            ])
          (bench_programs ~arch:x86)
      in
      Table.add_row tbl (cfg_name :: cells))
    configs;
  Table.print tbl

(* ------------------------------------------------------------ Table IV -- *)

let paper_table4 =
  [
    ("barnes", 1.52); ("cholesky", 12.08); ("fft", 2.22); ("fmm", 2.11);
    ("lu-c", 6.83); ("lu-nc", 6.12); ("ocean-c", 2.71); ("ocean-nc", 2.65);
    ("radiosity", 1.12); ("radix", 1.34); ("raytrace", 1.09);
    ("volrend", 1.54); ("water-ns", 1.41); ("water-s", 1.25);
  ]

(* Kernel sizes chosen so every base run spans many preemption ticks
   (the paper's runs last seconds; ours must last >= several hundred
   thousand cycles for the sync costs to be in steady state). *)
let table4_scales =
  [
    ("barnes", 7); ("cholesky", 8); ("fft", 3); ("fmm", 14); ("lu-c", 5);
    ("lu-nc", 5); ("ocean-c", 4); ("ocean-nc", 4); ("radiosity", 3);
    ("radix", 10); ("raytrace", 6); ("volrend", 8); ("water-ns", 9);
    ("water-s", 9);
  ]

let table4 ?(runs = 2) () =
  header "Table IV: SPLASH-2 kernels in a VM under CC-D (x86)"
    "overheads spread 1.1x-12x by loop tightness (CHOLESKY/LU worst, \
     RAYTRACE/RADIOSITY best); geometric mean ~2.3";
  let tbl =
    Table.create ~headers:[ "kernel"; "base kcyc"; "CC-D kcyc"; "fact"; "paper" ]
  in
  let base_cfg = Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 ~vm:true () in
  let cc_cfg = Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:x86 ~vm:true () in
  let facts = ref [] in
  List.iter
    (fun name ->
      let scale = List.assoc name table4_scales in
      let program_for () = Splash.program name ~scale ~branch_count:false () in
      let b = mean_cycles ~runs ~config:base_cfg ~program_for in
      let c = mean_cycles ~runs ~config:cc_cfg ~program_for in
      let fact = c.Stats.mean /. b.Stats.mean in
      facts := fact :: !facts;
      let paper = List.assoc name paper_table4 in
      Table.add_row tbl
        [
          name;
          Printf.sprintf "%.0f" (b.Stats.mean /. 1000.0);
          Printf.sprintf "%.0f" (c.Stats.mean /. 1000.0);
          Printf.sprintf "%.2f" fact;
          Printf.sprintf "%.2f" paper;
        ])
    Splash.names;
  Table.add_separator tbl;
  Table.add_row tbl
    [
      "geometric mean"; ""; "";
      Printf.sprintf "%.2f" (Stats.geomean !facts);
      "2.30";
    ];
  Table.print tbl;
  (* The paper runs NPROC=2 (two threads); the kernels that partition by
     index have a two-worker variant here. *)
  Printf.printf "\nNPROC=2 subset (spawn/join two workers inside the VM):\n";
  let tbl2 = Table.create ~headers:[ "kernel"; "np1 fact"; "np2 fact" ] in
  List.iter
    (fun name ->
      let scale = List.assoc name table4_scales in
      let fact nproc =
        let program_for () =
          Splash.program name ~scale ~nproc ~branch_count:false ()
        in
        let b = mean_cycles ~runs ~config:base_cfg ~program_for in
        let c = mean_cycles ~runs ~config:cc_cfg ~program_for in
        c.Stats.mean /. b.Stats.mean
      in
      Table.add_row tbl2
        [ name; Printf.sprintf "%.2f" (fact 1); Printf.sprintf "%.2f" (fact 2) ])
    Splash.mt_kernels;
  Table.print tbl2;
  Printf.printf
    "(paper: NPROC=2 geomean 2.30 vs NPROC=1 mean 2.02)\n%!"

(* ------------------------------------------------------------- Table V -- *)

let table5 ?(runs = 3) () =
  header "Table V: memory bandwidth under replication"
    "x86: one core saturates the bus, so DMR ~50% and TMR ~33% of \
     baseline copy throughput; Arm has headroom, so the loss is milder";
  List.iter
    (fun arch ->
      let branch_count = Wl.branch_count_for arch in
      let buffer_words = 16 * 1024 and reps = 3 in
      let program_for () =
        Membw.program ~buffer_words ~reps ~branch_count ()
      in
      let tbl = Table.create ~headers:[ "config"; "kcycles"; "rel. throughput" ] in
      let base = ref 0.0 in
      List.iter
        (fun (cfg_name, config) ->
          let s = mean_cycles ~runs ~config ~program_for in
          if cfg_name = "Base" then base := s.Stats.mean;
          Table.add_row tbl
            [
              cfg_name;
              Printf.sprintf "%.0f" (s.Stats.mean /. 1000.0);
              Printf.sprintf "%.2f" (!base /. s.Stats.mean);
            ])
        (Runner.standard_configs ~arch);
      Printf.printf "\n-- %s --\n" (Rcoe_machine.Arch.to_string arch);
      Table.print tbl)
    [ x86; arm ]

(* --------------------------------------------------------------- Fig 3 -- *)

let fig3 ?(workloads = [ "A"; "B"; "C"; "E" ]) ?(records = 150)
    ?(ops_factor = 8) () =
  header "Fig 3: KV-server (Redis) YCSB throughput, sync levels N/A/S"
    "LC-D loses 20-38%, TMR ~15% more; N vs A negligible, S costs more; \
     CC markedly worse (device access via kernel)";
  let levels =
    [ ("N", Config.Sync_none); ("A", Config.Sync_args); ("S", Config.Sync_vote) ]
  in
  List.iter
    (fun arch ->
      Printf.printf "\n-- %s (records=%d, ops=%dx) --\n"
        (Rcoe_machine.Arch.to_string arch) records ops_factor;
      let tbl =
        Table.create
          ~headers:("workload" :: "config" :: List.map fst levels)
      in
      let operations wl =
        if wl = "E" then records else records * ops_factor
      in
      List.iter
        (fun wl ->
          let workload = Ycsb.workload_of_string wl in
          List.iter
            (fun (cfg_name, mk) ->
              let cells =
                List.map
                  (fun (_, level) ->
                    let config = mk level in
                    let res =
                      Kv_run.run ~config ~workload ~records
                        ~operations:(operations wl) ()
                    in
                    match System.halted res.Kv_run.sys with
                    | Some _ -> "halt"
                    | None -> Printf.sprintf "%.1f" res.Kv_run.kops_per_sec)
                  levels
              in
              Table.add_row tbl (wl :: cfg_name :: cells))
            [
              ("Base",
               fun level ->
                 Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch
                   ~sync_level:level ~with_net:true ());
              ("LC-D",
               fun level ->
                 Runner.config_for ~mode:Config.LC ~nreplicas:2 ~arch
                   ~sync_level:level ~with_net:true ());
              ("LC-T",
               fun level ->
                 Runner.config_for ~mode:Config.LC ~nreplicas:3 ~arch
                   ~sync_level:level ~with_net:true ());
              ("CC-D",
               fun level ->
                 Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch
                   ~sync_level:level ~with_net:true ());
              ("CC-T",
               fun level ->
                 Runner.config_for ~mode:Config.CC ~nreplicas:3 ~arch
                   ~sync_level:level ~with_net:true ());
            ];
          Table.add_separator tbl)
        workloads;
      Table.print tbl)
    [ x86; arm ]

(* ------------------------------------------------------------- Table X -- *)

let table10 ?(runs = 3) () =
  header "Table X: time (microseconds) for error recovery (TMR -> DMR)"
    "removing the primary is ~2 orders of magnitude dearer than another \
     replica; CC primary > LC primary; CC masking unsupported on Arm";
  let tbl =
    Table.create ~headers:[ "arch"; "mode"; "faulty"; "us (mean)"; "paper us" ]
  in
  let paper = function
    | "x86", Config.LC, `Primary -> "532"
    | "x86", Config.LC, `Other -> "8"
    | "x86", Config.CC, `Primary -> "2869"
    | "x86", Config.CC, `Other -> "3"
    | "Arm", Config.LC, `Primary -> "2621"
    | "Arm", Config.LC, `Other -> "21"
    | _ -> "N/A"
  in
  let measure arch mode target =
    let samples = ref [] in
    for i = 1 to runs do
      let config =
        {
          (Runner.config_for ~mode ~nreplicas:3 ~arch ~seed:(i * 13)
             ~with_net:true ())
          with
          Config.masking = true;
        }
      in
      let branch_count = Wl.branch_count_for arch in
      let program = Kvstore.program ~max_records:256 ~branch_count () in
      let sys = System.create ~config ~program in
      (* Warm up past a few ticks, then corrupt the target replica's
         signature accumulator so the next vote convicts it. *)
      System.run sys ~max_cycles:200_000;
      let rid = match target with `Primary -> 0 | `Other -> 2 in
      Rcoe_machine.Mem.flip_bit
        (System.machine sys).Rcoe_machine.Machine.mem
        ~addr:(System.sig_base sys rid + 1)
        ~bit:4;
      System.run sys ~max_cycles:2_000_000
        ~stop:(fun s -> System.downgrades s <> []);
      match System.downgrades sys with
      | (_, faulty, cost) :: _ when faulty = rid ->
          let profile = Rcoe_machine.Arch.profile_of arch in
          samples := Rcoe_machine.Arch.cycles_to_us profile cost :: !samples
      | _ -> ()
    done;
    !samples
  in
  List.iter
    (fun (arch, arch_name) ->
      List.iter
        (fun mode ->
          if not (mode = Config.CC && arch = arm) then
            List.iter
              (fun (target, tname) ->
                let samples = measure arch mode target in
                let cell =
                  match samples with
                  | [] -> "no downgrade!"
                  | s -> Printf.sprintf "%.0f" (Stats.mean s)
                in
                Table.add_row tbl
                  [
                    arch_name;
                    Config.mode_to_string mode;
                    tname;
                    cell;
                    paper (arch_name, mode, target);
                  ])
              [ (`Primary, "primary"); (`Other, "other") ]
          else
            Table.add_row tbl
              [ arch_name; Config.mode_to_string mode; "-"; "N/A"; "N/A" ])
        [ Config.LC; Config.CC ])
    [ (x86, "x86"); (arm, "Arm") ];
  Table.print tbl

(* --------------------------------------------------------------- Fig 4 -- *)

let spin_for_reint () =
  let a = Rcoe_isa.Asm.create "spin" in
  Rcoe_isa.Asm.label a "main";
  Rcoe_isa.Asm.for_up a Rcoe_isa.Reg.R4 ~start:0
    ~stop:(Rcoe_isa.Instr.Imm 2_000_000) (fun () -> Rcoe_isa.Asm.nop a);
  Rcoe_isa.Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
  Rcoe_isa.Asm.assemble ~entry:"main" a

let fig4 () =
  header "Fig 4: KV throughput with error masking (TMR downgrades to DMR)"
    "a fault in one replica mid-run is masked; service continues at the \
     DMR level instead of halting";
  let config =
    {
      (Runner.config_for ~mode:Config.LC ~nreplicas:3 ~arch:x86 ~with_net:true ())
      with
      Config.masking = true;
    }
  in
  let records = 120 and operations = 2_400 in
  let injected = ref false in
  let inject sys =
    if (not !injected) && System.tick_count sys > 40 then begin
      injected := true;
      (* Corrupt a non-primary replica's signature accumulator. *)
      Rcoe_machine.Mem.flip_bit
        (System.machine sys).Rcoe_machine.Machine.mem
        ~addr:(System.sig_base sys 2 + 1)
        ~bit:7
    end
  in
  let res =
    Kv_run.run ~config ~workload:Ycsb.A ~records ~operations ~inject
      ~window:4 ()
  in
  let sys = res.Kv_run.sys in
  Printf.printf "completed %d ops at %.1f kops/s overall\n"
    res.Kv_run.ops_completed res.Kv_run.kops_per_sec;
  (match System.downgrades sys with
  | [] -> Printf.printf "NO downgrade happened (unexpected)\n"
  | (cycle, faulty, cost) :: _ ->
      Printf.printf
        "downgrade at cycle %d: replica %d removed (%.0f us); system \
         continued serving and finished %s\n"
        cycle faulty
        (Rcoe_machine.Arch.cycles_to_us (Rcoe_machine.Arch.profile_of x86) cost)
        (match System.halted sys with
        | None -> "cleanly"
        | Some h -> "with halt: " ^ System.halt_reason_to_string h));
  Printf.printf "live replicas at end: %s\n"
    (String.concat "," (List.map string_of_int (System.live sys)));
  (* Section IV-C extension: re-admit the repaired replica — DMR back to
     TMR without a reboot. *)
  let sys2 =
    let program = spin_for_reint () in
    let config =
      {
        (Runner.config_for ~mode:Config.LC ~nreplicas:3 ~arch:x86 ())
        with
        Config.masking = true;
        tick_interval = 5_000;
      }
    in
    System.create ~config ~program
  in
  System.run sys2 ~max_cycles:20_000;
  Rcoe_machine.Mem.flip_bit
    (System.machine sys2).Rcoe_machine.Machine.mem
    ~addr:(System.sig_base sys2 2 + 1) ~bit:6;
  System.run sys2 ~max_cycles:500_000 ~stop:(fun s -> System.downgrades s <> []);
  ignore (System.request_reintegration sys2 ~rid:2);
  System.run sys2 ~max_cycles:500_000
    ~stop:(fun s -> System.reintegrations s <> []);
  Printf.printf
    "re-integration (Section IV-C extension): replica 2 re-admitted at \
     cycle %d; live replicas now %s — TMR restored without a reboot\n%!"
    (match System.reintegrations sys2 with (c, _) :: _ -> c | [] -> -1)
    (String.concat "," (List.map string_of_int (System.live sys2)))

let ablation_fast_catchup ?(runs = 3) () =
  header "Ablation: PMU-assisted fast catch-up (paper Section VI proposal)"
    "replacing per-pass debug exceptions with one PMU overflow interrupt \
     for large branch deficits cuts CC-RCoE's tight-loop overhead";
  let tbl =
    Table.create
      ~headers:[ "config"; "catch-up"; "kcycles"; "fact"; "bp fires" ]
  in
  let whet () = Whetstone.program ~loops:100 ~branch_count:false () in
  let base_cfg = Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 () in
  let base = mean_cycles ~runs ~config:base_cfg ~program_for:whet in
  List.iter
    (fun (label, fast) ->
      let fires = ref 0 in
      let cycles = ref [] in
      for i = 1 to runs do
        let config =
          {
            (Runner.config_for ~mode:Config.CC ~nreplicas:3 ~arch:x86
               ~seed:(1 + (97 * i)) ())
            with
            Config.fast_catchup = fast;
          }
        in
        let r = Runner.run_program ~config ~program:(whet ()) () in
        fires := !fires + System.counter r.Runner.sys "catchup.bp_fires";
        cycles := float_of_int r.Runner.cycles :: !cycles
      done;
      let s = Stats.summarize !cycles in
      Table.add_row tbl
        [
          "CC-T whetstone"; label;
          Printf.sprintf "%.0f" (s.Stats.mean /. 1000.0);
          Printf.sprintf "%.3f" (s.Stats.mean /. base.Stats.mean);
          string_of_int (!fires / runs);
        ])
    [ ("breakpoints only", false); ("PMU-assisted", true) ];
  Table.print tbl

let all ~quick =
  let runs = if quick then 2 else 5 in
  e1_datarace ~runs:(if quick then 10 else 30) ();
  table2 ~runs ();
  table3 ~runs ();
  table4 ~runs:(if quick then 1 else 3) ();
  table5 ~runs ();
  fig3
    ~workloads:(if quick then [ "A"; "E" ] else [ "A"; "B"; "C"; "D"; "E" ])
    ();
  table10 ~runs ();
  fig4 ();
  ablation_fast_catchup ~runs ()
