(* Benchmark baseline: a small, regression-checked performance snapshot.

   `dune exec bench/main.exe -- baseline [PATH]` measures every section
   in [sections] and writes the JSON (schema `rcoe-bench-baseline/v6`,
   documented in EXPERIMENTS.md) — commit it as BENCH_baseline.json.
   `baseline-check [PATH]` re-measures and compares against the
   committed file by the rule each field declares next to its
   measurement (see [Schema]); RCOE_BENCH_TOLERANCE (default 0.10)
   sets the wall-time and speedup tolerance.

   The contracts that hold within or across rows — engine agreement,
   backend identity, the DMA-ingress campaign, replay detection and
   recovery — are checked on every measurement. The write also refuses
   a file where the block compiler or replay detection has lost its
   reason to exist.

   Wall times are host-dependent: regenerate the baseline when moving
   to different hardware. Speedup expectations are conditioned on the
   recorded `host.cores`: on a single-core host the parallel engine
   cannot beat the sequential one and only the determinism contract is
   meaningful. *)

open Rcoe_core
open Rcoe_workloads
open Rcoe_harness
module Json = Rcoe_obs.Json

let default_path = "BENCH_baseline.json"
let max_cycles = 400_000_000

type wl = { wname : string; program : unit -> Rcoe_isa.Program.t }

(* Sized so a replicated run is long enough to time meaningfully but
   the full baseline stays in tens of seconds. md5sum is the
   compute-bound workload the speedup acceptance criterion refers to. *)
let workloads =
  [
    {
      wname = "md5sum";
      program =
        (fun () ->
          Md5sum.program ~message_words:128 ~iters:24 ~seed:5
            ~branch_count:false ());
    };
    {
      wname = "dhrystone";
      program =
        (fun () -> Dhrystone.program ~loops:2500 ~branch_count:false ());
    };
    {
      wname = "whetstone";
      program = (fun () -> Whetstone.program ~loops:400 ~branch_count:false ());
    };
  ]

let configs =
  [
    (Config.LC, 2); (Config.LC, 3); (Config.CC, 2); (Config.CC, 3);
  ]

let config_label mode n =
  Printf.sprintf "%s-%s" (Config.mode_to_string mode)
    (match n with 2 -> "DMR" | 3 -> "TMR" | n -> string_of_int n ^ "R")

let mk_config ?(exec_backend = Config.Interp) ~mode ~nreplicas ~engine () =
  {
    (Runner.config_for ~mode ~nreplicas ~arch:Rcoe_machine.Arch.X86 ~seed:3 ())
    with
    Config.engine;
    exec_backend;
    exception_barriers = mode <> Config.Base;
  }

let overhead ~base cycles =
  float_of_int (cycles - base) /. float_of_int base

let outputs n sys = List.init n (System.output sys)

(* Two runs of one program agree on cycles and every replica's output. *)
let same_run n a b = System.now a = System.now b && outputs n a = outputs n b

(* The messages of the violated [(broken, message)] contracts. *)
let violated kind =
  List.filter_map (fun (broken, msg) ->
      if broken then Some (kind ^ " FAILURE: " ^ msg) else None)

(* Report every violated contract, then exit 1. *)
let enforce = function
  | [] -> ()
  | broken ->
      List.iter (Printf.eprintf "baseline: %s\n") broken;
      exit 1

(* The first of [Schema.reps] fresh runs, and their median wall time. *)
let measure ?exec_backend ~mode ~nreplicas ~engine wl =
  let config = mk_config ?exec_backend ~mode ~nreplicas ~engine () in
  let what = wl.wname ^ " " ^ config_label mode nreplicas in
  let (sys, _), median =
    Schema.repeat ~what
      ~identity:(fun (sys, _) -> (System.now sys, outputs nreplicas sys))
      (fun () ->
        let sys = System.create ~config ~program:(wl.program ()) in
        let (), wall = Schema.timed (fun () -> System.run sys ~max_cycles) in
        if not (System.finished sys) then
          failwith (Printf.sprintf "baseline: %s did not finish" what);
        (sys, wall))
  in
  (sys, median snd)

(* --- replication rows --------------------------------------------------- *)

let workload_row wl =
  Printf.printf "  %-10s base%!" wl.wname;
  let base_run, base_wall =
    measure ~mode:Config.Base ~nreplicas:1 ~engine:Config.Sequential wl
  in
  let base = System.now base_run in
  let config_row (mode, n) =
    let label = config_label mode n in
    Printf.printf " %s%!" label;
    let run engine = measure ~mode ~nreplicas:n ~engine wl in
    let seq, wall_seq = run Config.Sequential in
    let par, wall_par = run Config.Parallel in
    Schema.(
      sub label
        [
          info "mode" (Text (Config.mode_to_string mode));
          info "replicas" (Int n);
          exact ~col:"cycles" "cycles" (System.now seq);
          info ~col:"overhead" "sync_overhead"
            (Share (overhead ~base (System.now seq)));
          wall ~col:"seq wall" "wall_seq_s" wall_seq;
          wall ~col:"par wall" "wall_par_s" wall_par;
          info ~col:"speedup" "speedup" (Ratio (wall_seq /. wall_par));
          info ~col:"deterministic" "deterministic" (Flag (same_run n seq par));
        ])
  in
  let configs = List.map config_row configs in
  print_newline ();
  Schema.(
    row wl.wname
      [
        exact ~col:"cycles" "base.cycles" base;
        info ~col:"seq wall" "base.wall_s" (Secs base_wall);
        info "configs" (Rows configs);
      ])

let measure_workloads () =
  Printf.printf "Measuring benchmark baseline (%d reps, host cores: %d)\n%!"
    Schema.reps
    (Domain.recommended_domain_count ());
  let rows = List.map workload_row workloads in
  enforce
    (List.concat_map
       (fun r ->
         violated "DETERMINISM"
           (List.map
              (fun c ->
                ( not (Schema.flag c "deterministic"),
                  Printf.sprintf "%s %s: parallel != sequential" (Schema.key r)
                    (Schema.key c) ))
              (Schema.rows r "configs")))
       rows);
  rows

(* --- serving rows ------------------------------------------------------- *)

let serve_records = 64
let serve_requests = 1_000
let serve_chunk = 8_000

(* serve-closed / serve-fault run with ingress checking off; the fault
   row recovers through rollback plus client retransmission. The three
   ingress rows quantify the server-side DMA-hole closure:

   - serve-checked prices the per-frame FT_Mem_Rep checksum on a
     fault-free run (overhead = cycles vs serve-closed, exact);
   - serve-dma-silent flips a bit in a queued DMA frame with checking
     off — the corruption sails into the store and surfaces only as
     client-visible value corruption (exact count, > 0 by contract);
   - serve-dma-recover runs the same campaign with checking on — the
     frame is dropped at ingress, the client redelivers, no client
     corruption, and the order-insensitive outcome digest equals the
     fault-free serve-checked row's. *)
(* fault_after chosen so the corrupted PUT's key is GET again before
   its next overwrite under this workload/seed — the silent row's
   corruption must be client-visible, or the contract below trips. *)
let dma_fault =
  { Loadgen.fault_after = 100; fault_bit = 9;
    fault_target = Loadgen.Dma_frame }

let serve_cases =
  [
    ("serve-closed", false, None);
    ( "serve-fault", false,
      Some { Loadgen.fault_after = 200; fault_bit = 7;
             fault_target = Loadgen.Sig_word } );
    ("serve-checked", true, None);
    ("serve-dma-silent", false, Some dma_fault);
    ("serve-dma-recover", true, Some dma_fault);
  ]

let serve_config ~engine ~ingress ~fault =
  let rollback_fault =
    match fault with
    | Some { Loadgen.fault_target = Loadgen.Sig_word; _ } -> true
    | _ -> false
  in
  {
    (Runner.config_for ~mode:Config.CC ~nreplicas:2
       ~arch:Rcoe_machine.Arch.X86 ~with_net:true ~seed:5 ())
    with
    Config.engine;
    exception_barriers = true;
    ingress_check = ingress;
    checkpoint_every = (if rollback_fault then 2 else 0);
    max_rollbacks = 3;
  }

let measure_serve_case ~engine ~ingress ~fault =
  let (r, _), median =
    Schema.repeat ~what:"serve run"
      ~identity:(fun ((r : Loadgen.result), _) ->
        (r.outcome_digest, r.elapsed_cycles))
      (fun () ->
        let r, wall =
          Schema.timed (fun () ->
              Loadgen.run
                ~config:(serve_config ~engine ~ingress ~fault)
                ~workload:Ycsb.A ~records:serve_records
                ~requests:serve_requests ~chunk:serve_chunk ?fault ())
        in
        if r.Loadgen.stalled then failwith "baseline: serve run stalled";
        (r, wall))
  in
  (r, median snd)

let serve_row ~closed_cycles (name, ingress, fault) =
  Printf.printf " %s%!" name;
  let seq, wall_seq =
    measure_serve_case ~engine:Config.Sequential ~ingress ~fault
  in
  let par, wall_par =
    measure_serve_case ~engine:Config.Parallel ~ingress ~fault
  in
  let cycles = seq.Loadgen.elapsed_cycles in
  Schema.(
    row name
      ([
         info ~col:"ingress" "ingress_check" (Flag ingress);
         exact "requests" serve_requests;
         exact ~col:"cycles" "cycles" cycles;
         exact ~col:"completed" "completed" seq.completed;
         exact "digest" seq.outcome_digest;
         exact "sorted_digest" seq.outcome_sorted_digest;
         exact ~col:"rollbacks" "rollbacks" seq.rollbacks;
         exact ~col:"corrupted" "corrupted" seq.counters.Ycsb.corrupted;
         exact "ingress_checked" seq.ingress_checked;
         exact ~col:"dropped" "ingress_dropped" seq.ingress_dropped;
         exact ~col:"redeliv" "redelivered" seq.redelivered;
         wall ~col:"seq wall" "wall_seq_s" wall_seq;
         wall ~col:"par wall" "wall_par_s" wall_par;
         info ~col:"deterministic" "deterministic"
           (Flag
              (seq.outcome_digest = par.outcome_digest
              && seq.end_sigs = par.end_sigs
              && System.now seq.sys = System.now par.sys
              && seq.ingress_dropped = par.ingress_dropped));
       ]
      @
      match closed_cycles with
      | Some c when name = "serve-checked" ->
          [
            info "csum_overhead_cycles_per_req"
              (Float
                 (float_of_int (cycles - c) /. float_of_int serve_requests));
          ]
      | _ -> []))

let measure_serve () =
  Printf.printf "  serving   %!";
  (* serve-closed comes first: the checked row prices itself against it. *)
  let closed = serve_row ~closed_cycles:None (List.hd serve_cases) in
  let closed_cycles = Schema.int closed "cycles" in
  let rows =
    closed
    :: List.map (serve_row ~closed_cycles:(Some closed_cycles))
         (List.tl serve_cases)
  in
  print_newline ();
  let find n = List.find (fun s -> Schema.key s = n) rows in
  let int n path = Schema.int (find n) path in
  (* The same DMA-buffer flip must be client-visible with checking off
     and absorbed with it on, the post-recovery outcome log
     (order-insensitive) matching the fault-free checked run bit for
     bit. *)
  enforce
    (violated "DETERMINISM"
       (List.map
          (fun s ->
            ( not (Schema.flag s "deterministic"),
              Schema.key s ^ ": parallel != sequential" ))
          rows)
    @ violated "CAMPAIGN"
        [
          ( int "serve-dma-silent" "corrupted" < 1,
            "serve-dma-silent: DMA flip was not client-visible (corrupted = 0)"
          );
          ( int "serve-dma-silent" "ingress_dropped" <> 0,
            "serve-dma-silent: frames dropped with checking off" );
          ( int "serve-dma-recover" "ingress_dropped" < 1,
            "serve-dma-recover: ingress check never dropped the corrupt frame"
          );
          ( int "serve-dma-recover" "corrupted" <> 0,
            "serve-dma-recover: corruption leaked past the ingress check" );
          ( int "serve-dma-recover" "sorted_digest"
            <> int "serve-checked" "sorted_digest",
            "serve-dma-recover: outcome digest differs from fault-free run" );
        ]);
  let extra = int "serve-checked" "cycles" - closed_cycles in
  Printf.printf
    "  ingress checksum overhead: %+d cycles (%.2f cycles/request)\n" extra
    (float_of_int extra /. float_of_int serve_requests);
  rows

(* --- execution-backend rows --------------------------------------------- *)

(* Interp vs Blocks, per workload. The contract is asymmetric on
   purpose: simulated cycles and outputs must be IDENTICAL across the
   backends (bit for bit — the block compiler is only allowed to be
   faster, never different), while wall time is where the win shows up.
   The speedup is compared as a ratio: both backends run under the same
   host load, so the load cancels.

   Sizings are larger than the baseline workloads above and include a
   dispatch-bound kernel: per Amdahl, the backend can only compress the
   decode/dispatch share of a cycle (Machine.tick, devices and sync
   phases are backend-independent), so the speedup headline needs a
   workload whose cycles are dominated by instruction execution. *)

(* A long straight-line ALU block in a tight loop: near-zero memory
   traffic, near-zero kernel crossings — the pure decode/dispatch
   stress test and the >=2x speedup candidate. *)
let alu_tight () =
  let open Rcoe_isa in
  let a = Asm.create "alu-tight" in
  Asm.label a "main";
  Asm.movi a Reg.R4 0;
  Asm.movi a Reg.R5 1;
  Asm.movi a Reg.R6 2;
  Asm.while_ a Instr.Lt Reg.R4 (Instr.Imm 40_000) (fun () ->
      for _ = 1 to 16 do
        Asm.add a Reg.R5 Reg.R5 Reg.R6;
        Asm.xori a Reg.R6 Reg.R5 0x5bd1;
        Asm.shri a Reg.R7 Reg.R5 3;
        Asm.sub a Reg.R5 Reg.R5 Reg.R7
      done;
      Asm.addi a Reg.R4 Reg.R4 1);
  Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
  Asm.assemble ~entry:"main" a

let exec_workloads =
  [
    { wname = "alu-tight"; program = alu_tight };
    {
      wname = "md5sum-x";
      program =
        (fun () ->
          Md5sum.program ~message_words:128 ~iters:96 ~seed:5
            ~branch_count:false ());
    };
    {
      wname = "dhrystone-x";
      program =
        (fun () -> Dhrystone.program ~loops:10_000 ~branch_count:false ());
    };
    {
      wname = "whetstone-x";
      program = (fun () -> Whetstone.program ~loops:1_600 ~branch_count:false ());
    };
  ]

let exec_row wl =
  Printf.printf " %s%!" wl.wname;
  let run exec_backend =
    measure ~exec_backend ~mode:Config.Base ~nreplicas:1
      ~engine:Config.Sequential wl
  in
  let interp, wall_interp = run Config.Interp in
  let blocks, wall_blocks = run Config.Blocks in
  Schema.(
    row wl.wname
      [
        exact ~col:"cycles" "cycles" (System.now interp);
        info ~col:"interp wall" "wall_interp_s" (Secs wall_interp);
        info ~col:"blocks wall" "wall_blocks_s" (Secs wall_blocks);
        speedup ~col:"speedup" "speedup" (wall_interp /. wall_blocks);
        info ~col:"identical" "identical" (Flag (same_run 1 interp blocks));
      ])

let measure_exec () =
  Printf.printf "  exec      %!";
  let rows = List.map exec_row exec_workloads in
  print_newline ();
  enforce
    (violated "BACKEND IDENTITY"
       (List.map
          (fun x ->
            ( not (Schema.flag x "identical"),
              Schema.key x ^ ": blocks != interp" ))
          rows));
  rows

(* --- replay-detection rows ---------------------------------------------- *)

(* Asynchronous replay-based detection priced against both endpoints:
   the unreplicated Base run it shadows and the lockstep CC-DMR run it
   replaces. The headline claim is simulated: the replay primary's
   overhead over Base (per-chunk checkpoint capture stalls plus any
   queue backpressure) must be strictly below lockstep DMR's
   synchronisation overhead on the same workload — that asymmetry is
   the paper's reason to tolerate a detection lag at all, and the
   baseline write refuses to commit a file where it does not hold.
   The backends must agree bit for bit, and the fault campaign must
   recover through rollback to the fault-free output with every
   verdict inside the chunk_span x queue_depth pipeline bound. *)

(* The compute-bound pair from [workloads]: both finish, so the run
   loop's terminal drain harvests every chunk and verified == chunks
   exactly. *)
let replay_workloads =
  List.filter (fun w -> w.wname <> "whetstone") workloads

(* 4-tick chunks: the per-cut capture stall is the primary's only
   overhead, so chunk length is the overhead-vs-lag dial — at the
   1-tick default the stall alone (~1.9k cycles per 50k-cycle tick,
   ~3.9%) already exceeds lockstep DMR's sync overhead on dhrystone
   (~1.9%), defeating the point of detaching detection. Four ticks
   amortise it to ~1% while the lag bound grows to
   4 ticks x 50k cycles x queue_depth. *)
let replay_chunk_ticks = 4

let replay_config ~backend () =
  {
    (Runner.config_for ~mode:Config.Base ~nreplicas:1
       ~arch:Rcoe_machine.Arch.X86 ~seed:3 ())
    with
    Config.detection = Config.Replay;
    replay_chunk_ticks;
    exec_backend = backend;
    max_rollbacks = 3;
  }

let replay_max_lag sys =
  match
    Rcoe_obs.Metrics.find_histogram (System.metrics sys) "replay.lag_cycles"
  with
  | None -> failwith "baseline: replay.lag_cycles not registered"
  | Some h ->
      List.fold_left
        (fun m s -> max m (int_of_float s))
        0
        (Rcoe_obs.Metrics.samples h)

(* The transient campaign: run to [fault_at], flip one bit in the
   primary's signature accumulator word, keep running. Detection is
   asynchronous — the checker replaying that chunk disagrees on the
   end-of-chunk signature — and recovery rolls back to the chunk's
   start, before the flip. *)
let replay_fault_at = 120_000
let replay_fault_bit = 7

let measure_replay_case ?fault ~backend wl =
  let config = replay_config ~backend () in
  let what = "replay " ^ wl.wname in
  let (sys, _), median =
    Schema.repeat ~what
      ~identity:(fun (sys, _) ->
        ( System.now sys,
          System.output sys 0,
          System.counter sys "replay.chunks" ))
      (fun () ->
        let sys = System.create ~config ~program:(wl.program ()) in
        let (), wall =
          Schema.timed (fun () ->
              Option.iter
                (fun (at, bit) ->
                  System.run sys ~max_cycles:at;
                  let addr = System.sig_base sys 0 + 1 in
                  Rcoe_machine.Mem.flip_bit
                    (System.machine sys).Rcoe_machine.Machine.mem ~addr ~bit;
                  Rcoe_obs.Trace.injection (System.trace sys) ~addr ~bit)
                fault;
              System.run sys ~max_cycles)
        in
        if not (System.finished sys) then
          failwith
            (Printf.sprintf "baseline: %s did not finish (%s)" what
               (match System.halted sys with
               | Some h -> System.halt_reason_to_string h
               | None -> "ran out of cycles"));
        (sys, wall))
  in
  (sys, median snd)

let replay_row wl =
  Printf.printf " %s%!" wl.wname;
  let cycles mode nreplicas =
    System.now (fst (measure ~mode ~nreplicas ~engine:Config.Sequential wl))
  in
  let base = cycles Config.Base 1 and dmr = cycles Config.CC 2 in
  let interp, wall_interp = measure_replay_case ~backend:Config.Interp wl in
  let blocks, wall_blocks = measure_replay_case ~backend:Config.Blocks wl in
  let fault, _ =
    measure_replay_case
      ~fault:(replay_fault_at, replay_fault_bit)
      ~backend:Config.Interp wl
  in
  let cfg = replay_config ~backend:Config.Interp () in
  let over cycles = Schema.Share (overhead ~base cycles) in
  Schema.(
    row wl.wname
      [
        exact ~col:"base cyc" "base_cycles" base;
        exact ~col:"primary cyc" "cycles" (System.now interp);
        info ~col:"overhead" "primary_overhead" (over (System.now interp));
        exact "lockstep_dmr_cycles" dmr;
        info ~col:"DMR overhead" "lockstep_dmr_overhead" (over dmr);
        exact ~col:"chunks" "chunks" (System.counter interp "replay.chunks");
        exact "chunks_verified"
          (System.counter interp "replay.chunks_verified");
        exact ~col:"max lag" "max_lag_cycles" (replay_max_lag interp);
        exact ~col:"bound" "lag_bound_cycles"
          (cfg.Config.replay_chunk_ticks * cfg.Config.tick_interval
          * cfg.Config.replay_queue_depth);
        wall ~col:"interp wall" "wall_interp_s" wall_interp;
        wall ~col:"blocks wall" "wall_blocks_s" wall_blocks;
        info "identical" (Flag (same_run 1 interp blocks));
        exact "fault.cycles" (System.now fault);
        exact "fault.chunks" (System.counter fault "replay.chunks");
        exact ~col:"fault mism" "fault.mismatches"
          (System.counter fault "replay.mismatches");
        exact ~col:"fault rb" "fault.rollbacks"
          (List.length (System.rollbacks fault));
        exact "fault.max_lag_cycles" (replay_max_lag fault);
        info "fault.output_matches"
          (Flag (System.output fault 0 = System.output interp 0));
      ])

let measure_replay () =
  Printf.printf "  replay    %!";
  let rows = List.map replay_row replay_workloads in
  print_newline ();
  enforce
    (List.concat_map
       (fun p ->
         let name = Schema.key p and int = Schema.int p in
         let bound = int "lag_bound_cycles" in
         violated "REPLAY"
           [
             ( not (Schema.flag p "identical"),
               Printf.sprintf "replay %s: blocks != interp" name );
             ( int "chunks_verified" <> int "chunks",
               Printf.sprintf "replay %s: %d/%d chunks unverified at exit" name
                 (int "chunks" - int "chunks_verified")
                 (int "chunks") );
             ( int "max_lag_cycles" > bound,
               Printf.sprintf
                 "replay %s: detection lag %d exceeds pipeline bound %d" name
                 (int "max_lag_cycles") bound );
             ( int "fault.mismatches" < 1,
               Printf.sprintf "replay %s fault: no mismatch detected" name );
             ( int "fault.rollbacks" < 1,
               Printf.sprintf "replay %s fault: recovered without a rollback"
                 name );
             ( not (Schema.flag p "fault.output_matches"),
               Printf.sprintf
                 "replay %s fault: output differs from fault-free run" name );
             ( int "fault.max_lag_cycles" > bound,
               Printf.sprintf
                 "replay %s fault: detection lag %d exceeds pipeline bound %d"
                 name (int "fault.max_lag_cycles") bound );
           ])
       rows);
  rows

(* --- the file ----------------------------------------------------------- *)

(* In file order. *)
let sections =
  [
    ("ckpt", Ckpt_bench.measure);
    ("serve", measure_serve);
    ("exec", measure_exec);
    ("replay", measure_replay);
    ("workloads", measure_workloads);
  ]

let measure_section (name, measure) =
  let rows = measure () in
  Schema.print name rows;
  (name, rows)

let show name = ignore (measure_section (name, List.assoc name sections))

let write ?(path = default_path) () =
  let measured = List.map measure_section sections in
  (* The block compiler's reason to exist: refuse to commit a baseline
     where it does not clearly win anywhere. *)
  let best =
    List.fold_left
      (fun m x -> max m (Schema.num x "speedup"))
      0.0 (List.assoc "exec" measured)
  in
  enforce
    (violated "SPEEDUP"
       [
         ( best < 2.0,
           Printf.sprintf "best blocks-backend speedup %.2fx < 2x" best );
       ]);
  (* Replay detection's reason to exist: the unreplicated primary must
     run decisively closer to Base than lockstep DMR does. *)
  enforce
    (violated "REPLAY OVERHEAD"
       (List.map
          (fun p ->
            let primary = Schema.num p "primary_overhead"
            and dmr = Schema.num p "lockstep_dmr_overhead" in
            ( primary >= dmr,
              Printf.sprintf
                "%s: primary overhead %+.2f%% not below lockstep DMR sync \
                 overhead %+.2f%%"
                (Schema.key p) (100. *. primary) (100. *. dmr) ))
          (List.assoc "replay" measured)));
  let host =
    Json.Obj
      [
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("word_size", Json.Int Sys.word_size);
        ("os_type", Json.String Sys.os_type);
      ]
  in
  let json =
    Json.Obj
      ([
         ("schema", Json.String "rcoe-bench-baseline/v6");
         ("host", host);
         ("reps", Json.Int Schema.reps);
       ]
      @ List.map (fun (name, rows) -> (name, Schema.to_json rows)) measured)
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

(* --- comparison mode ---------------------------------------------------- *)

let tolerance () =
  match Sys.getenv_opt "RCOE_BENCH_TOLERANCE" with
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0. -> f
      | _ ->
          failwith
            (Printf.sprintf
               "RCOE_BENCH_TOLERANCE must be a positive float, got %S" s))
  | None -> 0.10

let check ?(path = default_path) () =
  let committed =
    let ic =
      try open_in_bin path
      with Sys_error e ->
        Printf.eprintf
          "baseline-check: cannot open %s (%s)\n\
           run `dune exec bench/main.exe -- baseline` to create it\n"
          path e;
        exit 1
    in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.parse s with
    | Ok j -> j
    | Error e ->
        Printf.eprintf "baseline-check: %s is malformed: %s\n" path e;
        exit 1
  in
  (match Json.member "schema" committed with
  | Some (Json.String "rcoe-bench-baseline/v6") -> ()
  | other ->
      Printf.eprintf
        "baseline-check: %s has schema %s, not rcoe-bench-baseline/v6\n\
         regenerate with `dune exec bench/main.exe -- baseline`\n"
        path
        (Option.fold ~none:"(none)" ~some:Json.to_string other);
      exit 1);
  let tol = tolerance () in
  let measured = List.map measure_section sections in
  let failures =
    List.concat_map
      (fun (name, rows) ->
        Schema.check ~tol name rows (Json.member name committed))
      measured
  in
  (* Incremental capture takes ~1-3ms, where host noise swamps any
     tolerance on absolute walls, so the ckpt walls are judged as the
     full/incremental ratio against an absolute floor; words and
     cost_cycles, compared exactly, are the real regression guard. *)
  let floor = 2.0 /. (1. +. tol) in
  let slow_incremental =
    List.filter_map
      (fun r ->
        let ratio =
          Schema.num r "full.wall_s" /. Schema.num r "incremental.wall_s"
        in
        if ratio >= floor then None
        else
          Some
            (Printf.sprintf
               "ckpt %s: incremental capture no longer decisively faster \
                than full (%.1fx, floor %.1fx)"
               (Schema.key r) ratio floor))
      (List.assoc "ckpt" measured)
  in
  match failures @ slow_incremental with
  | [] ->
      Printf.printf "baseline-check: ok (tolerance %.0f%%, vs %s)\n"
        (100. *. tol) path
  | fs ->
      List.iter (Printf.eprintf "baseline-check: %s\n") fs;
      exit 1
