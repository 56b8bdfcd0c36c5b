(* Benchmark baseline: a small, regression-checked performance snapshot.

   `dune exec bench/main.exe -- baseline [PATH]` measures, for each
   baseline workload:

   - simulated cycles and wall time of the Base (unreplicated) run;
   - per replication config (LC/CC x DMR/TMR): simulated cycles, the
     sync-phase overhead relative to Base (the paper's normalised
     slowdown), wall time under the Sequential and the Parallel engine,
     and the Sequential->Parallel wall-time speedup;
   - a determinism bit: the two engines must agree on final cycle and
     replica outputs, or the run is marked non-deterministic and the
     baseline write fails.

   The baseline also embeds the checkpoint-capture rows of
   [Ckpt_bench]: per workload, the words copied and capture wall time
   of full vs incremental capture, and the simulated ckpt.cost_cycles
   both modes charge end-to-end.

   The baseline further embeds serving rows ([Loadgen]): a closed-loop
   YCSB run through the NIC, a fault-campaign variant that recovers
   through rollback, and three ingress-checksum rows (fault-free
   checked run pricing the per-frame FT_Mem_Rep verification, plus the
   DMA-buffer flip campaign with checking off and on), each recording
   the simulated run-phase cycles, request outcome digests, completion
   / rollback / corruption / ingress-drop / redelivery counts (all
   exact), wall time under both engines, and the engines-agree
   determinism bit.

   The baseline finally embeds execution-backend rows: per exec
   workload, the wall time of the interpreter vs the block-compiled
   backend (`Config.exec_backend`), the recorded speedup, and an
   identity bit — simulated cycles and outputs must be bit-for-bit
   identical across the backends, and the baseline write refuses to
   commit a file whose best recorded speedup is below 2x.

   The baseline also embeds replay-detection rows: per compute
   workload, the unreplicated replay primary's simulated cycles and
   overhead over Base next to lockstep CC-DMR's sync overhead (the
   write refuses a file where replay is not strictly cheaper), chunk
   and verdict counts, the maximum detection lag against the
   chunk_span x queue_depth pipeline bound, Interp/Blocks identity,
   and a transient fault campaign that must recover through rollback
   to the fault-free output.

   The result is written as JSON (schema `rcoe-bench-baseline/v6`,
   documented in EXPERIMENTS.md) — commit it as BENCH_baseline.json.

   `dune exec bench/main.exe -- baseline-check [PATH]` re-measures and
   compares against the committed file, failing non-zero when

   - any simulated cycle count differs (the simulator is deterministic,
     so any drift is a real semantic change — regenerate the baseline
     deliberately if it is intentional);
   - either engine's wall time regresses by more than 10% on a workload
     aggregate (tolerance via RCOE_BENCH_TOLERANCE, a float, e.g. 0.25
     on noisy shared hardware);
   - a checkpoint row drifts: copied words or charged ckpt.cost_cycles
     differ at all, or the incremental capture wall time regresses by
     more than the same tolerance;
   - a serve row drifts: simulated cycles, outcome digest, completion
     or rollback counts differ at all, or either engine's wall time
     regresses beyond the tolerance;
   - the engines disagree (determinism failure — never tolerated).

   Wall times are host-dependent: regenerate the baseline when moving
   to different hardware. Speedup expectations are conditioned on the
   recorded `host.cores`: on a single-core host the parallel engine
   cannot beat the sequential one (domain scheduling overhead makes it
   slower) and only the determinism contract is meaningful. *)

open Rcoe_core
open Rcoe_workloads
open Rcoe_harness
module Json = Rcoe_obs.Json

let default_path = "BENCH_baseline.json"
let reps = 3
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

type measurement = { m_cycles : int; m_wall : float; m_out : string list }

(* Median-of-[reps] wall time over fresh systems; cycle count and
   outputs must agree across reps (they always do — the simulator is
   deterministic — but check rather than assume). *)
let measure ?exec_backend ~mode ~nreplicas ~engine wl =
  let config = mk_config ?exec_backend ~mode ~nreplicas ~engine () in
  let one () =
    let sys = System.create ~config ~program:(wl.program ()) in
    let t0 = Unix.gettimeofday () in
    System.run sys ~max_cycles;
    let wall = Unix.gettimeofday () -. t0 in
    if not (System.finished sys) then
      failwith
        (Printf.sprintf "baseline: %s %s did not finish" wl.wname
           (config_label mode nreplicas));
    let outs = List.init nreplicas (fun rid -> System.output sys rid) in
    { m_cycles = System.now sys; m_wall = wall; m_out = outs }
  in
  let runs = List.init reps (fun _ -> one ()) in
  let first = List.hd runs in
  List.iter
    (fun m ->
      if m.m_cycles <> first.m_cycles || m.m_out <> first.m_out then
        failwith
          (Printf.sprintf "baseline: %s %s is not run-to-run deterministic"
             wl.wname (config_label mode nreplicas)))
    runs;
  let walls = List.sort compare (List.map (fun m -> m.m_wall) runs) in
  { first with m_wall = List.nth walls (reps / 2) }

type cfg_row = {
  c_label : string;
  c_mode : Config.mode;
  c_n : int;
  c_cycles : int;
  c_overhead : float;  (* (cycles - base_cycles) / base_cycles *)
  c_wall_seq : float;
  c_wall_par : float;
  c_speedup : float;  (* wall_seq / wall_par *)
  c_deterministic : bool;
}

type wl_row = {
  r_name : string;
  r_base_cycles : int;
  r_base_wall : float;
  r_configs : cfg_row list;
}

let measure_workload wl =
  Printf.printf "  %-10s base%!" wl.wname;
  let base =
    measure ~mode:Config.Base ~nreplicas:1 ~engine:Config.Sequential wl
  in
  let rows =
    List.map
      (fun (mode, n) ->
        Printf.printf " %s%!" (config_label mode n);
        let seq = measure ~mode ~nreplicas:n ~engine:Config.Sequential wl in
        let par = measure ~mode ~nreplicas:n ~engine:Config.Parallel wl in
        {
          c_label = config_label mode n;
          c_mode = mode;
          c_n = n;
          c_cycles = seq.m_cycles;
          c_overhead =
            float_of_int (seq.m_cycles - base.m_cycles)
            /. float_of_int base.m_cycles;
          c_wall_seq = seq.m_wall;
          c_wall_par = par.m_wall;
          c_speedup = seq.m_wall /. par.m_wall;
          c_deterministic =
            seq.m_cycles = par.m_cycles && seq.m_out = par.m_out;
        })
      configs
  in
  print_newline ();
  { r_name = wl.wname; r_base_cycles = base.m_cycles; r_base_wall = base.m_wall;
    r_configs = rows }

(* --- serving rows ------------------------------------------------------- *)

type serve_row = {
  s_name : string;
  s_ingress : bool;  (* FT_Mem_Rep ingress checksum path on? *)
  s_requests : int;
  s_cycles : int;  (* simulated run-phase cycles — exact *)
  s_completed : int;
  s_digest : int;  (* CRC-32 of the request outcome log — exact *)
  s_sorted_digest : int;  (* order-insensitive digest — exact *)
  s_rollbacks : int;
  s_corrupted : int;  (* client-visible value corruption — exact *)
  s_checked : int;  (* frames checksum-verified at ingress — exact *)
  s_dropped : int;  (* corrupt frames dropped/NACKed — exact *)
  s_redelivered : int;  (* dropped frames redelivered by client — exact *)
  s_wall_seq : float;
  s_wall_par : float;
  s_deterministic : bool;
}

let serve_records = 64
let serve_requests = 1_000
let serve_chunk = 8_000

(* serve-closed / serve-fault are the PR 7 rows (ingress checking off;
   the fault row recovers through rollback plus client retransmission).
   The three ingress rows quantify the server-side DMA-hole closure:

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

let measure_serve_engine ~engine ~ingress ~fault =
  let one () =
    let t0 = Unix.gettimeofday () in
    let r =
      Loadgen.run
        ~config:(serve_config ~engine ~ingress ~fault)
        ~workload:Ycsb.A ~records:serve_records ~requests:serve_requests
        ~chunk:serve_chunk ?fault ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    if r.Loadgen.stalled then failwith "baseline: serve run stalled";
    (r, wall)
  in
  let runs = List.init reps (fun _ -> one ()) in
  let first, _ = List.hd runs in
  List.iter
    (fun ((r : Loadgen.result), _) ->
      if
        r.Loadgen.outcome_digest <> first.Loadgen.outcome_digest
        || r.Loadgen.elapsed_cycles <> first.Loadgen.elapsed_cycles
      then failwith "baseline: serve run is not run-to-run deterministic")
    runs;
  let walls = List.sort compare (List.map snd runs) in
  (first, List.nth walls (reps / 2))

let measure_serve () =
  Printf.printf "  serving   %!";
  let rows =
    List.map
      (fun (name, ingress, fault) ->
        Printf.printf " %s%!" name;
        let seq, wall_seq =
          measure_serve_engine ~engine:Config.Sequential ~ingress ~fault
        in
        let par, wall_par =
          measure_serve_engine ~engine:Config.Parallel ~ingress ~fault
        in
        {
          s_name = name;
          s_ingress = ingress;
          s_requests = serve_requests;
          s_cycles = seq.Loadgen.elapsed_cycles;
          s_completed = seq.Loadgen.completed;
          s_digest = seq.Loadgen.outcome_digest;
          s_sorted_digest = seq.Loadgen.outcome_sorted_digest;
          s_rollbacks = seq.Loadgen.rollbacks;
          s_corrupted = seq.Loadgen.counters.Ycsb.corrupted;
          s_checked = seq.Loadgen.ingress_checked;
          s_dropped = seq.Loadgen.ingress_dropped;
          s_redelivered = seq.Loadgen.redelivered;
          s_wall_seq = wall_seq;
          s_wall_par = wall_par;
          s_deterministic =
            seq.Loadgen.outcome_digest = par.Loadgen.outcome_digest
            && seq.Loadgen.end_sigs = par.Loadgen.end_sigs
            && System.now seq.Loadgen.sys = System.now par.Loadgen.sys
            && seq.Loadgen.ingress_dropped = par.Loadgen.ingress_dropped;
        })
      serve_cases
  in
  print_newline ();
  let broken = List.filter (fun s -> not s.s_deterministic) rows in
  if broken <> [] then begin
    List.iter
      (fun s ->
        Printf.eprintf
          "baseline: DETERMINISM FAILURE: %s: parallel != sequential\n"
          s.s_name)
      broken;
    exit 1
  end;
  (* Cross-row campaign contract: the same DMA-buffer flip must be
     client-visible with checking off and absorbed with it on — with
     the post-recovery outcome log (order-insensitive) matching the
     fault-free checked run bit for bit. *)
  let find n = List.find (fun s -> s.s_name = n) rows in
  let checked = find "serve-checked" in
  let silent = find "serve-dma-silent" in
  let recover = find "serve-dma-recover" in
  let contract = ref [] in
  if silent.s_corrupted < 1 then
    contract :=
      "serve-dma-silent: DMA flip was not client-visible (corrupted = 0)"
      :: !contract;
  if silent.s_dropped <> 0 then
    contract :=
      "serve-dma-silent: frames dropped with checking off" :: !contract;
  if recover.s_dropped < 1 then
    contract :=
      "serve-dma-recover: ingress check never dropped the corrupt frame"
      :: !contract;
  if recover.s_corrupted <> 0 then
    contract :=
      "serve-dma-recover: corruption leaked past the ingress check"
      :: !contract;
  if recover.s_sorted_digest <> checked.s_sorted_digest then
    contract :=
      "serve-dma-recover: outcome digest differs from fault-free run"
      :: !contract;
  if !contract <> [] then begin
    List.iter
      (fun m -> Printf.eprintf "baseline: CAMPAIGN FAILURE: %s\n" m)
      (List.rev !contract);
    exit 1
  end;
  Printf.printf
    "  ingress checksum overhead: %+d cycles (%.2f cycles/request)\n"
    (checked.s_cycles - (find "serve-closed").s_cycles)
    (float_of_int (checked.s_cycles - (find "serve-closed").s_cycles)
    /. float_of_int serve_requests);
  rows

let print_serve_table rows =
  let t =
    Rcoe_util.Table.create
      ~headers:
        [ "serve"; "ingress"; "cycles"; "completed"; "rollbacks";
          "corrupted"; "dropped"; "redeliv"; "seq wall"; "par wall";
          "deterministic" ]
  in
  List.iter
    (fun s ->
      Rcoe_util.Table.add_row t
        [
          s.s_name;
          (if s.s_ingress then "on" else "off");
          string_of_int s.s_cycles; string_of_int s.s_completed;
          string_of_int s.s_rollbacks; string_of_int s.s_corrupted;
          string_of_int s.s_dropped; string_of_int s.s_redelivered;
          Printf.sprintf "%.3fs" s.s_wall_seq;
          Printf.sprintf "%.3fs" s.s_wall_par;
          (if s.s_deterministic then "yes" else "NO");
        ])
    rows;
  Rcoe_util.Table.print t

let serve_json rows =
  let closed_cycles =
    match List.find_opt (fun s -> s.s_name = "serve-closed") rows with
    | Some s -> Some s.s_cycles
    | None -> None
  in
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           ([
              ("name", Json.String s.s_name);
              ("ingress_check", Json.Bool s.s_ingress);
              ("requests", Json.Int s.s_requests);
              ("cycles", Json.Int s.s_cycles);
              ("completed", Json.Int s.s_completed);
              ("digest", Json.Int s.s_digest);
              ("sorted_digest", Json.Int s.s_sorted_digest);
              ("rollbacks", Json.Int s.s_rollbacks);
              ("corrupted", Json.Int s.s_corrupted);
              ("ingress_checked", Json.Int s.s_checked);
              ("ingress_dropped", Json.Int s.s_dropped);
              ("redelivered", Json.Int s.s_redelivered);
              ("wall_seq_s", Json.Float s.s_wall_seq);
              ("wall_par_s", Json.Float s.s_wall_par);
              ("deterministic", Json.Bool s.s_deterministic);
            ]
           @
           match (s.s_name, closed_cycles) with
           | "serve-checked", Some c ->
               [
                 ( "csum_overhead_cycles_per_req",
                   Json.Float
                     (float_of_int (s.s_cycles - c)
                     /. float_of_int s.s_requests) );
               ]
           | _ -> []))
       rows)

(* --- execution-backend rows --------------------------------------------- *)

(* Interp vs Blocks, per workload. The contract is asymmetric on
   purpose: simulated cycles and outputs must be IDENTICAL across the
   backends (bit for bit — the block compiler is only allowed to be
   faster, never different), while wall time is where the win shows up.

   Sizings are larger than the baseline workloads above and include a
   dispatch-bound kernel: per Amdahl, the backend can only compress the
   decode/dispatch share of a cycle (Machine.tick, devices and sync
   phases are backend-independent), so the speedup headline needs a
   workload whose cycles are dominated by instruction execution. *)

type exec_row = {
  x_name : string;
  x_cycles : int;  (* simulated cycles — exact, backend-identical *)
  x_wall_interp : float;
  x_wall_blocks : float;
  x_speedup : float;  (* wall_interp / wall_blocks *)
  x_identical : bool;  (* cycles and outputs agree across backends *)
}

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

let measure_exec () =
  Printf.printf "  exec      %!";
  let rows =
    List.map
      (fun wl ->
        Printf.printf " %s%!" wl.wname;
        let interp =
          measure ~exec_backend:Config.Interp ~mode:Config.Base ~nreplicas:1
            ~engine:Config.Sequential wl
        in
        let blocks =
          measure ~exec_backend:Config.Blocks ~mode:Config.Base ~nreplicas:1
            ~engine:Config.Sequential wl
        in
        {
          x_name = wl.wname;
          x_cycles = interp.m_cycles;
          x_wall_interp = interp.m_wall;
          x_wall_blocks = blocks.m_wall;
          x_speedup = interp.m_wall /. blocks.m_wall;
          x_identical =
            interp.m_cycles = blocks.m_cycles && interp.m_out = blocks.m_out;
        })
      exec_workloads
  in
  print_newline ();
  let broken = List.filter (fun x -> not x.x_identical) rows in
  if broken <> [] then begin
    List.iter
      (fun x ->
        Printf.eprintf
          "baseline: BACKEND IDENTITY FAILURE: %s: blocks != interp\n" x.x_name)
      broken;
    exit 1
  end;
  rows

let print_exec_table rows =
  let t =
    Rcoe_util.Table.create
      ~headers:
        [ "exec"; "cycles"; "interp wall"; "blocks wall"; "speedup";
          "identical" ]
  in
  List.iter
    (fun x ->
      Rcoe_util.Table.add_row t
        [
          x.x_name; string_of_int x.x_cycles;
          Printf.sprintf "%.3fs" x.x_wall_interp;
          Printf.sprintf "%.3fs" x.x_wall_blocks;
          Printf.sprintf "%.2fx" x.x_speedup;
          (if x.x_identical then "yes" else "NO");
        ])
    rows;
  Rcoe_util.Table.print t

let exec_json rows =
  Json.List
    (List.map
       (fun x ->
         Json.Obj
           [
             ("name", Json.String x.x_name);
             ("cycles", Json.Int x.x_cycles);
             ("wall_interp_s", Json.Float x.x_wall_interp);
             ("wall_blocks_s", Json.Float x.x_wall_blocks);
             ("speedup", Json.Float x.x_speedup);
             ("identical", Json.Bool x.x_identical);
           ])
       rows)

let exec_table () =
  let rows = measure_exec () in
  print_exec_table rows

(* --- replay-detection rows ---------------------------------------------- *)

(* Asynchronous replay-based detection priced against both endpoints:
   the unreplicated Base run it shadows and the lockstep CC-DMR run it
   replaces. The headline claim is simulated: the replay primary's
   overhead over Base (per-chunk checkpoint capture stalls plus any
   queue backpressure) must be strictly below lockstep DMR's
   synchronisation overhead on the same workload — that asymmetry is
   the paper's reason to tolerate a detection lag at all, and the
   baseline write refuses to commit a file where it does not hold.
   Cycle counts, chunk/verdict counts and the maximum detection lag
   are exact; the backends must agree bit for bit; and the fault
   campaign must recover through rollback to the fault-free output
   with every verdict inside the chunk_span x queue_depth pipeline
   bound. *)

type replay_fault_row = {
  f_cycles : int;  (* simulated — exact (includes re-execution) *)
  f_chunks : int;
  f_mismatches : int;
  f_rollbacks : int;
  f_max_lag : int;  (* cycles from chunk end to verdict — exact *)
  f_output_matches : bool;  (* output = fault-free run's *)
}

type replay_row = {
  p_name : string;
  p_base_cycles : int;
  p_cycles : int;  (* replay primary, simulated — exact *)
  p_overhead : float;  (* (p_cycles - base) / base *)
  p_dmr_cycles : int;  (* lockstep CC-DMR, Sequential *)
  p_dmr_overhead : float;
  p_chunks : int;
  p_verified : int;
  p_max_lag : int;
  p_lag_bound : int;  (* chunk span x queue depth *)
  p_wall_interp : float;
  p_wall_blocks : float;
  p_identical : bool;  (* cycles and output agree across backends *)
  p_fault : replay_fault_row;
}

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

let measure_replay_engine ?fault ~backend wl =
  let config = replay_config ~backend () in
  let one () =
    let sys = System.create ~config ~program:(wl.program ()) in
    let t0 = Unix.gettimeofday () in
    (match fault with
    | Some (at, bit) ->
        System.run sys ~max_cycles:at;
        let addr = System.sig_base sys 0 + 1 in
        Rcoe_machine.Mem.flip_bit
          (System.machine sys).Rcoe_machine.Machine.mem ~addr ~bit;
        Rcoe_obs.Trace.injection (System.trace sys) ~addr ~bit
    | None -> ());
    System.run sys ~max_cycles;
    let wall = Unix.gettimeofday () -. t0 in
    if not (System.finished sys) then
      failwith
        (Printf.sprintf "baseline: replay %s did not finish (%s)" wl.wname
           (match System.halted sys with
           | Some h -> System.halt_reason_to_string h
           | None -> "ran out of cycles"));
    (sys, wall)
  in
  let runs = List.init reps (fun _ -> one ()) in
  let first, _ = List.hd runs in
  List.iter
    (fun (sys, _) ->
      if
        System.now sys <> System.now first
        || System.output sys 0 <> System.output first 0
        || System.counter sys "replay.chunks"
           <> System.counter first "replay.chunks"
      then
        failwith
          (Printf.sprintf
             "baseline: replay %s is not run-to-run deterministic" wl.wname))
    runs;
  let walls = List.sort compare (List.map snd runs) in
  (first, List.nth walls (reps / 2))

let measure_replay () =
  Printf.printf "  replay    %!";
  let rows =
    List.map
      (fun wl ->
        Printf.printf " %s%!" wl.wname;
        let base =
          measure ~mode:Config.Base ~nreplicas:1 ~engine:Config.Sequential wl
        in
        let dmr =
          measure ~mode:Config.CC ~nreplicas:2 ~engine:Config.Sequential wl
        in
        let interp, wall_interp =
          measure_replay_engine ~backend:Config.Interp wl
        in
        let blocks, wall_blocks =
          measure_replay_engine ~backend:Config.Blocks wl
        in
        let fault_sys, _ =
          measure_replay_engine
            ~fault:(replay_fault_at, replay_fault_bit)
            ~backend:Config.Interp wl
        in
        let cfg = replay_config ~backend:Config.Interp () in
        let span = cfg.Config.replay_chunk_ticks * cfg.Config.tick_interval in
        let over c =
          float_of_int (c - base.m_cycles) /. float_of_int base.m_cycles
        in
        {
          p_name = wl.wname;
          p_base_cycles = base.m_cycles;
          p_cycles = System.now interp;
          p_overhead = over (System.now interp);
          p_dmr_cycles = dmr.m_cycles;
          p_dmr_overhead = over dmr.m_cycles;
          p_chunks = System.counter interp "replay.chunks";
          p_verified = System.counter interp "replay.chunks_verified";
          p_max_lag = replay_max_lag interp;
          p_lag_bound = span * cfg.Config.replay_queue_depth;
          p_wall_interp = wall_interp;
          p_wall_blocks = wall_blocks;
          p_identical =
            System.now interp = System.now blocks
            && System.output interp 0 = System.output blocks 0;
          p_fault =
            {
              f_cycles = System.now fault_sys;
              f_chunks = System.counter fault_sys "replay.chunks";
              f_mismatches = System.counter fault_sys "replay.mismatches";
              f_rollbacks = List.length (System.rollbacks fault_sys);
              f_max_lag = replay_max_lag fault_sys;
              f_output_matches =
                System.output fault_sys 0 = System.output interp 0;
            };
        })
      replay_workloads
  in
  print_newline ();
  (* Detection/recovery contract — checked on every measurement, write
     and check alike. The overhead-vs-DMR gate lives in [write]. *)
  let broken = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> broken := s :: !broken) fmt in
  List.iter
    (fun p ->
      if not p.p_identical then
        fail "replay %s: blocks != interp" p.p_name;
      if p.p_verified <> p.p_chunks then
        fail "replay %s: %d/%d chunks unverified at exit" p.p_name
          (p.p_chunks - p.p_verified) p.p_chunks;
      if p.p_max_lag > p.p_lag_bound then
        fail "replay %s: detection lag %d exceeds pipeline bound %d" p.p_name
          p.p_max_lag p.p_lag_bound;
      let f = p.p_fault in
      if f.f_mismatches < 1 then
        fail "replay %s fault: no mismatch detected" p.p_name;
      if f.f_rollbacks < 1 then
        fail "replay %s fault: recovered without a rollback" p.p_name;
      if not f.f_output_matches then
        fail "replay %s fault: output differs from fault-free run" p.p_name;
      if f.f_max_lag > p.p_lag_bound then
        fail "replay %s fault: detection lag %d exceeds pipeline bound %d"
          p.p_name f.f_max_lag p.p_lag_bound)
    rows;
  if !broken <> [] then begin
    List.iter
      (fun m -> Printf.eprintf "baseline: REPLAY FAILURE: %s\n" m)
      (List.rev !broken);
    exit 1
  end;
  rows

let print_replay_table rows =
  let t =
    Rcoe_util.Table.create
      ~headers:
        [ "replay"; "base cyc"; "primary cyc"; "overhead"; "DMR overhead";
          "chunks"; "max lag"; "bound"; "interp wall"; "blocks wall";
          "fault" ]
  in
  List.iter
    (fun p ->
      Rcoe_util.Table.add_row t
        [
          p.p_name;
          string_of_int p.p_base_cycles;
          string_of_int p.p_cycles;
          Printf.sprintf "%+.2f%%" (100. *. p.p_overhead);
          Printf.sprintf "%+.2f%%" (100. *. p.p_dmr_overhead);
          string_of_int p.p_chunks;
          string_of_int p.p_max_lag;
          string_of_int p.p_lag_bound;
          Printf.sprintf "%.3fs" p.p_wall_interp;
          Printf.sprintf "%.3fs" p.p_wall_blocks;
          Printf.sprintf "%d mism/%d rb"
            p.p_fault.f_mismatches p.p_fault.f_rollbacks;
        ])
    rows;
  Rcoe_util.Table.print t

let replay_json rows =
  Json.List
    (List.map
       (fun p ->
         Json.Obj
           [
             ("name", Json.String p.p_name);
             ("base_cycles", Json.Int p.p_base_cycles);
             ("cycles", Json.Int p.p_cycles);
             ("primary_overhead", Json.Float p.p_overhead);
             ("lockstep_dmr_cycles", Json.Int p.p_dmr_cycles);
             ("lockstep_dmr_overhead", Json.Float p.p_dmr_overhead);
             ("chunks", Json.Int p.p_chunks);
             ("chunks_verified", Json.Int p.p_verified);
             ("max_lag_cycles", Json.Int p.p_max_lag);
             ("lag_bound_cycles", Json.Int p.p_lag_bound);
             ("wall_interp_s", Json.Float p.p_wall_interp);
             ("wall_blocks_s", Json.Float p.p_wall_blocks);
             ("identical", Json.Bool p.p_identical);
             ( "fault",
               Json.Obj
                 [
                   ("cycles", Json.Int p.p_fault.f_cycles);
                   ("chunks", Json.Int p.p_fault.f_chunks);
                   ("mismatches", Json.Int p.p_fault.f_mismatches);
                   ("rollbacks", Json.Int p.p_fault.f_rollbacks);
                   ("max_lag_cycles", Json.Int p.p_fault.f_max_lag);
                   ("output_matches", Json.Bool p.p_fault.f_output_matches);
                 ] );
           ])
       rows)

let replay_table () =
  let rows = measure_replay () in
  print_replay_table rows

let host_json () =
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("word_size", Json.Int Sys.word_size);
      ("os_type", Json.String Sys.os_type);
    ]

let to_json rows ckpt_rows serve_rows exec_rows replay_rows =
  Json.Obj
    [
      ("schema", Json.String "rcoe-bench-baseline/v6");
      ("host", host_json ());
      ("reps", Json.Int reps);
      ("ckpt", Ckpt_bench.to_json ckpt_rows);
      ("serve", serve_json serve_rows);
      ("exec", exec_json exec_rows);
      ("replay", replay_json replay_rows);
      ( "workloads",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.r_name);
                   ( "base",
                     Json.Obj
                       [
                         ("cycles", Json.Int r.r_base_cycles);
                         ("wall_s", Json.Float r.r_base_wall);
                       ] );
                   ( "configs",
                     Json.List
                       (List.map
                          (fun c ->
                            Json.Obj
                              [
                                ("label", Json.String c.c_label);
                                ( "mode",
                                  Json.String (Config.mode_to_string c.c_mode)
                                );
                                ("replicas", Json.Int c.c_n);
                                ("cycles", Json.Int c.c_cycles);
                                ("sync_overhead", Json.Float c.c_overhead);
                                ("wall_seq_s", Json.Float c.c_wall_seq);
                                ("wall_par_s", Json.Float c.c_wall_par);
                                ("speedup", Json.Float c.c_speedup);
                                ("deterministic", Json.Bool c.c_deterministic);
                              ])
                          r.r_configs) );
                 ])
             rows) );
    ]

let print_table rows =
  let t =
    Rcoe_util.Table.create
      ~headers:
        [ "workload"; "config"; "cycles"; "overhead"; "seq wall";
          "par wall"; "speedup"; "deterministic" ]
  in
  List.iter
    (fun r ->
      Rcoe_util.Table.add_row t
        [ r.r_name; "Base"; string_of_int r.r_base_cycles; "-";
          Printf.sprintf "%.3fs" r.r_base_wall; "-"; "-"; "-" ];
      List.iter
        (fun c ->
          Rcoe_util.Table.add_row t
            [
              r.r_name; c.c_label; string_of_int c.c_cycles;
              Printf.sprintf "%+.0f%%" (100. *. c.c_overhead);
              Printf.sprintf "%.3fs" c.c_wall_seq;
              Printf.sprintf "%.3fs" c.c_wall_par;
              Printf.sprintf "%.2fx" c.c_speedup;
              (if c.c_deterministic then "yes" else "NO");
            ])
        r.r_configs)
    rows;
  Rcoe_util.Table.print t

let measure_all () =
  Printf.printf "Measuring benchmark baseline (%d reps, host cores: %d)\n%!"
    reps
    (Domain.recommended_domain_count ());
  let rows = List.map measure_workload workloads in
  print_table rows;
  let broken =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun c ->
            if c.c_deterministic then None else Some (r.r_name, c.c_label))
          r.r_configs)
      rows
  in
  if broken <> [] then begin
    List.iter
      (fun (w, c) ->
        Printf.eprintf
          "baseline: DETERMINISM FAILURE: %s %s: parallel != sequential\n" w c)
      broken;
    exit 1
  end;
  rows

let write ?(path = default_path) () =
  let rows = measure_all () in
  let ckpt_rows = Ckpt_bench.measure_all () in
  Ckpt_bench.print_table ckpt_rows;
  let serve_rows = measure_serve () in
  print_serve_table serve_rows;
  let exec_rows = measure_exec () in
  print_exec_table exec_rows;
  let replay_rows = measure_replay () in
  print_replay_table replay_rows;
  (* The block compiler's reason to exist: refuse to commit a baseline
     where it does not clearly win anywhere. *)
  let best =
    List.fold_left (fun m x -> max m x.x_speedup) 0.0 exec_rows
  in
  if best < 2.0 then begin
    Printf.eprintf
      "baseline: SPEEDUP FAILURE: best blocks-backend speedup %.2fx < 2x\n"
      best;
    exit 1
  end;
  (* Replay detection's reason to exist: the unreplicated primary must
     run decisively closer to Base than lockstep DMR does — refuse a
     baseline where the simulated overhead ordering is violated. *)
  List.iter
    (fun p ->
      if p.p_overhead >= p.p_dmr_overhead then begin
        Printf.eprintf
          "baseline: REPLAY OVERHEAD FAILURE: %s: primary overhead %+.2f%% \
           not below lockstep DMR sync overhead %+.2f%%\n"
          p.p_name (100. *. p.p_overhead) (100. *. p.p_dmr_overhead);
        exit 1
      end)
    replay_rows;
  let oc = open_out path in
  output_string oc
    (Json.to_string (to_json rows ckpt_rows serve_rows exec_rows replay_rows));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

let serve_table () =
  let rows = measure_serve () in
  print_serve_table rows

(* --- comparison mode ---------------------------------------------------- *)

let jfail fmt = Printf.ksprintf failwith fmt

let jmember name j =
  match Json.member name j with
  | Some v -> v
  | None -> jfail "baseline file: missing field %S" name

let jint = function Json.Int i -> i | _ -> jfail "baseline file: expected int"

let jfloat = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> jfail "baseline file: expected number"

let jstring = function
  | Json.String s -> s
  | _ -> jfail "baseline file: expected string"

let jlist = function
  | Json.List l -> l
  | _ -> jfail "baseline file: expected list"

let tolerance () =
  match Sys.getenv_opt "RCOE_BENCH_TOLERANCE" with
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0. -> f
      | _ -> jfail "RCOE_BENCH_TOLERANCE must be a positive float, got %S" s)
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
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    match Json.parse s with
    | Ok j -> j
    | Error e ->
        Printf.eprintf "baseline-check: %s is malformed: %s\n" path e;
        exit 1
  in
  (match jstring (jmember "schema" committed) with
  | "rcoe-bench-baseline/v6" -> ()
  | "rcoe-bench-baseline/v2" | "rcoe-bench-baseline/v3"
  | "rcoe-bench-baseline/v4" | "rcoe-bench-baseline/v5" ->
      Printf.eprintf
        "baseline-check: %s uses a pre-replay schema (no replay-detection \
         rows)\n\
         regenerate with `dune exec bench/main.exe -- baseline`\n"
        path;
      exit 1
  | other ->
      Printf.eprintf "baseline-check: unknown schema %S in %s\n" other path;
      exit 1);
  let tol = tolerance () in
  let fresh = measure_all () in
  let fresh_ckpt = Ckpt_bench.measure_all () in
  Ckpt_bench.print_table fresh_ckpt;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let committed_wls = jlist (jmember "workloads" committed) in
  let find_wl name =
    List.find_opt
      (fun j -> jstring (jmember "name" j) = name)
      committed_wls
  in
  List.iter
    (fun r ->
      match find_wl r.r_name with
      | None -> fail "%s: not present in committed baseline" r.r_name
      | Some j ->
          let base = jmember "base" j in
          if jint (jmember "cycles" base) <> r.r_base_cycles then
            fail "%s Base: cycles %d != committed %d" r.r_name r.r_base_cycles
              (jint (jmember "cycles" base));
          let committed_cfgs = jlist (jmember "configs" j) in
          List.iter
            (fun c ->
              match
                List.find_opt
                  (fun cj -> jstring (jmember "label" cj) = c.c_label)
                  committed_cfgs
              with
              | None ->
                  fail "%s %s: not present in committed baseline" r.r_name
                    c.c_label
              | Some cj ->
                  if jint (jmember "cycles" cj) <> c.c_cycles then
                    fail "%s %s: cycles %d != committed %d" r.r_name c.c_label
                      c.c_cycles
                      (jint (jmember "cycles" cj));
                  let wall_check what fresh_w committed_w =
                    if fresh_w > committed_w *. (1. +. tol) then
                      fail "%s %s: %s wall time %.3fs regressed >%.0f%% over \
                            committed %.3fs"
                        r.r_name c.c_label what fresh_w (100. *. tol)
                        committed_w
                  in
                  wall_check "sequential" c.c_wall_seq
                    (jfloat (jmember "wall_seq_s" cj));
                  wall_check "parallel" c.c_wall_par
                    (jfloat (jmember "wall_par_s" cj)))
            r.r_configs)
    fresh;
  (* Checkpoint-capture rows: simulated quantities exactly. The wall
     claim is judged as the full/incremental ratio against an absolute
     floor, not against the committed times: the incremental capture
     takes ~1-3ms, where host noise swamps any tolerance on absolute
     walls and still moves the ratio by 2x between runs. Words copied
     and cost_cycles are exact-checked above, so the real regression
     guard is simulated; the wall floor only defends the qualitative
     claim that incremental capture is decisively faster. *)
  let committed_ckpt = jlist (jmember "ckpt" committed) in
  List.iter
    (fun (r : Ckpt_bench.row) ->
      match
        List.find_opt
          (fun j -> jstring (jmember "name" j) = r.Ckpt_bench.k_name)
          committed_ckpt
      with
      | None ->
          fail "ckpt %s: not present in committed baseline"
            r.Ckpt_bench.k_name
      | Some j ->
          let full = jmember "full" j and incr = jmember "incremental" j in
          let exact what fresh_v committed_v =
            if fresh_v <> committed_v then
              fail "ckpt %s: %s %d != committed %d" r.Ckpt_bench.k_name what
                fresh_v committed_v
          in
          exact "captures" r.Ckpt_bench.k_captures (jint (jmember "captures" j));
          exact "full words" r.Ckpt_bench.k_full_words
            (jint (jmember "words" full));
          exact "incremental words" r.Ckpt_bench.k_incr_words
            (jint (jmember "words" incr));
          exact "full cost_cycles" r.Ckpt_bench.k_full_cost
            (jint (jmember "cost_cycles" full));
          exact "incremental cost_cycles" r.Ckpt_bench.k_incr_cost
            (jint (jmember "cost_cycles" incr));
          exact "full engine_checkpoints" r.Ckpt_bench.k_full_ckpts
            (jint (jmember "engine_checkpoints" full));
          exact "incremental engine_checkpoints" r.Ckpt_bench.k_incr_ckpts
            (jint (jmember "engine_checkpoints" incr));
          let fresh_ratio =
            r.Ckpt_bench.k_full_wall /. r.Ckpt_bench.k_incr_wall
          in
          if fresh_ratio < 2.0 /. (1. +. tol) then
            fail
              "ckpt %s: incremental capture no longer decisively faster \
               than full (%.1fx, floor %.1fx)"
              r.Ckpt_bench.k_name fresh_ratio (2.0 /. (1. +. tol)))
    fresh_ckpt;
  (* Serving rows: simulated quantities exactly, walls within the
     tolerance. *)
  let fresh_serve = measure_serve () in
  print_serve_table fresh_serve;
  let committed_serve = jlist (jmember "serve" committed) in
  List.iter
    (fun s ->
      match
        List.find_opt
          (fun j -> jstring (jmember "name" j) = s.s_name)
          committed_serve
      with
      | None -> fail "serve %s: not present in committed baseline" s.s_name
      | Some j ->
          let exact what fresh_v committed_v =
            if fresh_v <> committed_v then
              fail "serve %s: %s %d != committed %d" s.s_name what fresh_v
                committed_v
          in
          exact "requests" s.s_requests (jint (jmember "requests" j));
          exact "cycles" s.s_cycles (jint (jmember "cycles" j));
          exact "completed" s.s_completed (jint (jmember "completed" j));
          exact "digest" s.s_digest (jint (jmember "digest" j));
          exact "sorted_digest" s.s_sorted_digest
            (jint (jmember "sorted_digest" j));
          exact "rollbacks" s.s_rollbacks (jint (jmember "rollbacks" j));
          exact "corrupted" s.s_corrupted (jint (jmember "corrupted" j));
          exact "ingress_checked" s.s_checked
            (jint (jmember "ingress_checked" j));
          exact "ingress_dropped" s.s_dropped
            (jint (jmember "ingress_dropped" j));
          exact "redelivered" s.s_redelivered
            (jint (jmember "redelivered" j));
          let wall_check what fresh_w committed_w =
            if fresh_w > committed_w *. (1. +. tol) then
              fail
                "serve %s: %s wall time %.3fs regressed >%.0f%% over \
                 committed %.3fs"
                s.s_name what fresh_w (100. *. tol) committed_w
          in
          wall_check "sequential" s.s_wall_seq
            (jfloat (jmember "wall_seq_s" j));
          wall_check "parallel" s.s_wall_par (jfloat (jmember "wall_par_s" j)))
    fresh_serve;
  (* Execution-backend rows: cycles must match the committed baseline
     exactly (and [measure_exec] has already verified Blocks == Interp
     on this run — an identity failure exits before we get here). Wall
     regression is judged on the interp/blocks *ratio*, not on either
     absolute time: both backends run under the same host load, so the
     ratio cancels machine noise that routinely pushes the sub-second
     absolute times past any reasonable tolerance. *)
  let fresh_exec = measure_exec () in
  print_exec_table fresh_exec;
  let committed_exec = jlist (jmember "exec" committed) in
  List.iter
    (fun x ->
      match
        List.find_opt
          (fun j -> jstring (jmember "name" j) = x.x_name)
          committed_exec
      with
      | None -> fail "exec %s: not present in committed baseline" x.x_name
      | Some j ->
          if jint (jmember "cycles" j) <> x.x_cycles then
            fail "exec %s: cycles %d != committed %d" x.x_name x.x_cycles
              (jint (jmember "cycles" j));
          let committed_speedup = jfloat (jmember "speedup" j) in
          if x.x_speedup < committed_speedup /. (1. +. tol) then
            fail
              "exec %s: speedup %.2fx regressed >%.0f%% below committed %.2fx"
              x.x_name x.x_speedup (100. *. tol) committed_speedup)
    fresh_exec;
  (* Replay-detection rows: every simulated quantity exactly (cycles,
     chunk/verdict counts, detection lags, the fault campaign), walls
     within the tolerance. [measure_replay] has already enforced the
     detection/recovery contract — backend identity, verified ==
     chunks, lag bound, fault Recovered — on this fresh run. *)
  let fresh_replay = measure_replay () in
  print_replay_table fresh_replay;
  let committed_replay = jlist (jmember "replay" committed) in
  List.iter
    (fun p ->
      match
        List.find_opt
          (fun j -> jstring (jmember "name" j) = p.p_name)
          committed_replay
      with
      | None -> fail "replay %s: not present in committed baseline" p.p_name
      | Some j ->
          let exact what fresh_v committed_v =
            if fresh_v <> committed_v then
              fail "replay %s: %s %d != committed %d" p.p_name what fresh_v
                committed_v
          in
          exact "base cycles" p.p_base_cycles (jint (jmember "base_cycles" j));
          exact "cycles" p.p_cycles (jint (jmember "cycles" j));
          exact "lockstep DMR cycles" p.p_dmr_cycles
            (jint (jmember "lockstep_dmr_cycles" j));
          exact "chunks" p.p_chunks (jint (jmember "chunks" j));
          exact "chunks_verified" p.p_verified
            (jint (jmember "chunks_verified" j));
          exact "max_lag_cycles" p.p_max_lag
            (jint (jmember "max_lag_cycles" j));
          exact "lag_bound_cycles" p.p_lag_bound
            (jint (jmember "lag_bound_cycles" j));
          let fault = jmember "fault" j in
          exact "fault cycles" p.p_fault.f_cycles
            (jint (jmember "cycles" fault));
          exact "fault chunks" p.p_fault.f_chunks
            (jint (jmember "chunks" fault));
          exact "fault mismatches" p.p_fault.f_mismatches
            (jint (jmember "mismatches" fault));
          exact "fault rollbacks" p.p_fault.f_rollbacks
            (jint (jmember "rollbacks" fault));
          exact "fault max_lag_cycles" p.p_fault.f_max_lag
            (jint (jmember "max_lag_cycles" fault));
          let wall_check what fresh_w committed_w =
            if fresh_w > committed_w *. (1. +. tol) then
              fail
                "replay %s: %s wall time %.3fs regressed >%.0f%% over \
                 committed %.3fs"
                p.p_name what fresh_w (100. *. tol) committed_w
          in
          wall_check "interp" p.p_wall_interp
            (jfloat (jmember "wall_interp_s" j));
          wall_check "blocks" p.p_wall_blocks
            (jfloat (jmember "wall_blocks_s" j)))
    fresh_replay;
  match !failures with
  | [] ->
      Printf.printf "baseline-check: ok (tolerance %.0f%%, vs %s)\n"
        (100. *. tol) path
  | fs ->
      List.iter (fun f -> Printf.eprintf "baseline-check: %s\n" f)
        (List.rev fs);
      exit 1
