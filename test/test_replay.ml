(* Replay-based detection (Config.detection = Replay): the unreplicated
   primary runs ahead cutting (start-image, input-log) chunks that
   checker domains re-execute and compare by memory digest. These tests
   cover healthy-run verification, the transient-fault -> Recovered
   acceptance scenario with its exact accounting and detection-lag
   bound, run-to-run and Interp/Blocks determinism, and the replay
   metrics/trace surface. *)

open Rcoe_machine
open Rcoe_core
open Rcoe_workloads
open Rcoe_harness
module Trace = Rcoe_obs.Trace
module Metrics = Rcoe_obs.Metrics

let x86 = Arch.X86

(* --- configuration ------------------------------------------------------- *)

let replay_config ?(chunk_ticks = 2) ?(queue_depth = 2) ?(checkers = 2)
    ?(backend = Config.Interp) ?(seed = 7) ?trace () =
  {
    (Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 ~seed
       ~tick_interval:10_000 ())
    with
    Config.detection = Config.Replay;
    replay_chunk_ticks = chunk_ticks;
    replay_queue_depth = queue_depth;
    replay_checkers = checkers;
    max_rollbacks = 6;
    exec_backend = backend;
    trace;
  }

let test_config_validation () =
  let expect_ok label cfg =
    match Config.validate cfg with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s rejected: %s" label e
  in
  expect_ok "valid replay config" (replay_config ());
  (* Replay keeps no checkpoint ring, so the ring's depth is not read. *)
  expect_ok "replay config with checkpoint depth 0"
    { (replay_config ()) with Config.checkpoint_depth = 0 };
  let expect_err label cfg =
    match Config.validate cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s must be rejected" label
  in
  expect_err "replay under replication"
    { (replay_config ()) with Config.mode = Config.CC; nreplicas = 2 };
  expect_err "replay on the parallel engine"
    { (replay_config ()) with Config.engine = Config.Parallel };
  expect_err "replay with lockstep checkpointing"
    { (replay_config ()) with Config.checkpoint_every = 4 };
  expect_err "replay with full checkpoints"
    { (replay_config ()) with Config.checkpoint_mode = Config.Full };
  expect_err "zero chunk ticks"
    { (replay_config ()) with Config.replay_chunk_ticks = 0 };
  expect_err "zero queue depth"
    { (replay_config ()) with Config.replay_queue_depth = 0 };
  expect_err "zero checkers"
    { (replay_config ()) with Config.replay_checkers = 0 }

(* A one-tick chunk no longer than its fixed costs (the cut's 2,000-cycle
   quiesce, the tick's interrupt entry and, under [vm], its VM exit)
   leaves the primary no cycle to run: Base Whetstone (9 loops, seed
   900, [Blocks]) cut chunk after chunk for 3M cycles without finishing
   at each rejected span here, and finished at each accepted one (x86
   at cycle 614,343, Arm 1,609,986, x86 with [vm] 972,735). The x86
   row runs its accepted span to that cycle. *)
let test_replay_span_floor () =
  let cfg ~arch ~vm ~tick =
    {
      (Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch ~vm ~seed:900
         ~tick_interval:tick ())
      with
      Config.detection = Config.Replay;
      replay_chunk_ticks = 1;
      exec_backend = Config.Blocks;
    }
  in
  let contains hay needle =
    let k = String.length needle in
    let rec at i =
      i + k <= String.length hay && (String.sub hay i k = needle || at (i + 1))
    in
    at 0
  in
  List.iter
    (fun (label, arch, vm, stuck, ok) ->
      (match Config.validate (cfg ~arch ~vm ~tick:stuck) with
      | Ok () -> Alcotest.failf "%s: a %d-cycle span must be rejected" label stuck
      | Error reason ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: the reason names the span and the costs: %s"
               label reason)
            true
            (contains reason (string_of_int stuck)
            && contains reason (string_of_int Config.ckpt_quiesce_cycles)));
      match Config.validate (cfg ~arch ~vm ~tick:ok) with
      | Ok () -> ()
      | Error reason ->
          Alcotest.failf "%s: a %d-cycle span must be accepted: %s" label ok
            reason)
    [
      ("x86", x86, false, 2_300, 2_400);
      ("Arm", Arch.Arm, false, 2_400, 2_500);
      ("x86 vm", x86, true, 3_500, 3_800);
    ];
  let sys =
    System.create
      ~config:(cfg ~arch:x86 ~vm:false ~tick:2_400)
      ~program:(Whetstone.program ~loops:9 ~branch_count:false ())
  in
  System.run sys ~max_cycles:3_000_000;
  Alcotest.(check bool) "x86 at 2,400: finished" true (System.finished sys);
  Alcotest.(check int) "x86 at 2,400: final cycle" 614_343 (System.now sys)

let md5 () =
  Md5sum.program ~message_words:96 ~iters:8 ~seed:6 ~branch_count:false ()

let counter = System.counter

(* --- healthy run: every chunk verifies, output is Base's ----------------- *)

let test_healthy_run_verifies () =
  let sys = System.create ~config:(replay_config ()) ~program:(md5 ()) in
  System.run sys ~max_cycles:200_000_000;
  Alcotest.(check bool) "finished" true (System.finished sys);
  Alcotest.(check bool) "not halted" true (System.halted sys = None);
  Alcotest.(check string) "correct output" "........" (System.output sys 0);
  let chunks = counter sys "replay.chunks" in
  Alcotest.(check bool) "pipelined (several chunks)" true (chunks >= 3);
  Alcotest.(check int) "every chunk verified" chunks
    (counter sys "replay.chunks_verified");
  Alcotest.(check int) "no mismatches" 0 (counter sys "replay.mismatches");
  Alcotest.(check int) "no rollbacks" 0 (List.length (System.rollbacks sys));
  (* The reference semantics: a plain Base run of the same program. *)
  let base =
    Runner.run_program
      ~config:(Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:x86 ())
      ~program:(md5 ()) ()
  in
  Alcotest.(check string) "output = Base output" (System.output base.sys 0)
    (System.output sys 0)

(* --- determinism: run-to-run and across execution backends --------------- *)

let replay_run ?(backend = Config.Interp) ?fault () =
  let sys =
    System.create ~config:(replay_config ~backend ()) ~program:(md5 ())
  in
  (match fault with
  | Some (at, bit) ->
      System.run sys ~max_cycles:at;
      let addr = System.sig_base sys 0 + 1 in
      Mem.flip_bit (System.machine sys).Machine.mem ~addr ~bit;
      Trace.injection (System.trace sys) ~addr ~bit
  | None -> ());
  System.run sys ~max_cycles:200_000_000;
  sys

let fingerprint sys =
  ( System.now sys,
    System.output sys 0,
    System.finished sys,
    System.halted sys = None,
    counter sys "replay.chunks",
    counter sys "replay.chunks_verified",
    counter sys "replay.mismatches",
    List.length (System.rollbacks sys) )

let test_deterministic_across_runs_and_backends () =
  let a = fingerprint (replay_run ~backend:Config.Interp ()) in
  let b = fingerprint (replay_run ~backend:Config.Interp ()) in
  let c = fingerprint (replay_run ~backend:Config.Blocks ()) in
  Alcotest.(check bool) "run-to-run identical" true (a = b);
  Alcotest.(check bool) "interp = blocks" true (a = c)

(* --- a stopped run keeps its pipeline flowing ----------------------------- *)

let test_stop_and_resume () =
  (* A run the [~stop] predicate ends skips the terminal drain, so the
     chunk still in flight stays unverified; resumed to completion, the
     run is indistinguishable from one that never stopped. *)
  let clean = fingerprint (replay_run ()) in
  List.iter
    (fun backend ->
      let sys =
        System.create ~config:(replay_config ~backend ()) ~program:(md5 ())
      in
      System.run sys ~max_cycles:200_000_000 ~stop:(fun s ->
          String.length (System.output s 0) >= 3);
      Alcotest.(check bool) "stopped mid-way" false (System.finished sys);
      Alcotest.(check bool) "chunks left unverified" true
        (counter sys "replay.chunks_verified" < counter sys "replay.chunks");
      System.run sys ~max_cycles:200_000_000;
      Alcotest.(check bool)
        (Config.exec_backend_to_string backend ^ ": resumed = unstopped")
        true
        (fingerprint sys = clean))
    [ Config.Interp; Config.Blocks ]

(* --- transient fault: detected by replay, recovered by rollback ---------- *)

let test_transient_fault_recovered () =
  let fault = (60_000, 7) in
  let sys = replay_run ~fault () in
  Alcotest.(check bool) "finished" true (System.finished sys);
  Alcotest.(check bool) "recovered, not halted" true (System.halted sys = None);
  Alcotest.(check bool) "mismatch detected" true
    (counter sys "replay.mismatches" >= 1);
  Alcotest.(check bool) "rolled back" true
    (List.length (System.rollbacks sys) >= 1);
  Alcotest.(check bool) "mismatch event logged" true
    (List.exists
       (fun (_, k) -> k = System.E_mismatch)
       (System.events sys));
  (* Recovered output is bit-for-bit the fault-free run's. *)
  let clean = replay_run () in
  Alcotest.(check string) "digest equals fault-free reference"
    (System.output clean 0) (System.output sys 0);
  (* Fault runs are deterministic too. *)
  Alcotest.(check bool) "fault run deterministic" true
    (fingerprint sys = fingerprint (replay_run ~fault ()));
  (* The replay accounting, pinned exactly on both backends: cut stalls
     priced as delta captures, one rollback to the mismatching chunk's
     start, every frozen image (setup, cuts, the re-seed after the
     rollback) counted. *)
  List.iter
    (fun backend ->
      let sys = replay_run ~backend ~fault () in
      let name = Config.exec_backend_to_string backend ^ ": " in
      let check_int label want got =
        Alcotest.(check int) (name ^ label) want got
      in
      check_int "final cycle" 204_485 (System.now sys);
      check_int "ckpt.taken" 11 (counter sys "ckpt.taken");
      check_int "ckpt.words_copied" 10_496 (counter sys "ckpt.words_copied");
      check_int "ckpt.words_skipped" 2_287_360
        (counter sys "ckpt.words_skipped");
      check_int "checkpoints_taken" 13 (System.checkpoints_taken sys);
      Alcotest.(check (list (pair int int)))
        (name ^ "rollbacks") [ (80_000, 40_000) ] (System.rollbacks sys);
      check_int "replay.chunks" 11 (counter sys "replay.chunks");
      check_int "replay.chunks_verified" 9
        (counter sys "replay.chunks_verified"))
    [ Config.Interp; Config.Blocks ]

(* --- a flip into a page the guest never writes ---------------------------- *)

(* Each image shares with the previous one every page not written since,
   and a restore skips the pages memory already holds. The signature
   word's page is written by the kernel anyway, so only a flip into a
   page the guest never writes shows a wrong sharing rule: the flip is
   the page's only write. The page is found on the same configuration
   without replay, with the write tracking reset after set-up; the
   replay run must detect the flip, roll back, restore the word and
   finish with the fault-free output. *)
let test_flip_in_unwritten_page () =
  let mem sys = (System.machine sys).Machine.mem in
  List.iter
    (fun backend ->
      let name = Config.exec_backend_to_string backend ^ ": " in
      let config = replay_config ~backend () in
      let plain =
        System.create
          ~config:{ config with Config.detection = Config.Lockstep }
          ~program:(md5 ())
      in
      Mem.clear_dirty (mem plain);
      System.run plain ~max_cycles:200_000_000;
      let p = (System.layout plain).Rcoe_kernel.Layout.partitions.(0) in
      let last = p.Rcoe_kernel.Layout.p_base + p.Rcoe_kernel.Layout.p_words in
      let rec unwritten page =
        if page < p.Rcoe_kernel.Layout.p_base then
          Alcotest.fail "the guest writes every page of its partition"
        else if Mem.page_is_dirty (mem plain) ~addr:page then
          unwritten (page - Mem.page_size)
        else page
      in
      let addr = unwritten (last - Mem.page_size) + 17 in
      let sys = System.create ~config ~program:(md5 ()) in
      System.run sys ~max_cycles:60_000;
      let word = Mem.read (mem sys) addr in
      Mem.flip_bit (mem sys) ~addr ~bit:7;
      System.run sys ~max_cycles:200_000_000;
      Alcotest.(check bool) (name ^ "finished") true (System.finished sys);
      Alcotest.(check bool) (name ^ "recovered, not halted") true
        (System.halted sys = None);
      Alcotest.(check int) (name ^ "one mismatch") 1
        (counter sys "replay.mismatches");
      Alcotest.(check int) (name ^ "one rollback") 1
        (List.length (System.rollbacks sys));
      Alcotest.(check int) (name ^ "the word restored") word
        (Mem.read (mem sys) addr);
      Alcotest.(check string) (name ^ "fault-free output")
        (System.output plain 0) (System.output sys 0))
    [ Config.Interp; Config.Blocks ]

(* --- detection-lag bound ------------------------------------------------- *)

let test_detection_lag_bound () =
  (* Chunk [j]'s verdict is processed no later than the cut closing
     chunk [j + depth - 1]: with the traced run's [Replay_cut] /
     [Replay_verdict] events the pipelining bound is exact. The cycle
     form (lag <= depth * chunk span) needs slack for capture stalls,
     which stretch a chunk's wall-cycles past its nominal span. *)
  let chunk_ticks = 2 and queue_depth = 2 in
  let config =
    replay_config ~chunk_ticks ~queue_depth
      ~trace:{ Trace.capacity = 1 lsl 16 }
      ()
  in
  let sys = System.create ~config ~program:(md5 ()) in
  System.run sys ~max_cycles:200_000_000;
  Alcotest.(check bool) "finished" true (System.finished sys);
  let events = Trace.events (System.trace sys) in
  let cut_ts = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.Trace.body with
      | Trace.Replay_cut { seq } -> Hashtbl.replace cut_ts seq e.Trace.ts
      | _ -> ())
    events;
  let verdicts =
    List.filter_map
      (fun e ->
        match e.Trace.body with
        | Trace.Replay_verdict { seq; chunk_end; lag; ok } ->
            Some (e.Trace.ts, seq, chunk_end, lag, ok)
        | _ -> None)
      events
  in
  Alcotest.(check bool) "verdicts present" true (verdicts <> []);
  List.iter
    (fun (ts, seq, chunk_end, lag, ok) ->
      Alcotest.(check bool) "healthy chunk verified" true ok;
      Alcotest.(check int) "lag = verdict ts - chunk end" (ts - chunk_end) lag;
      Alcotest.(check bool) "lag non-negative" true (lag >= 0);
      (* Exact pipelining bound: the verdict precedes (or coincides
         with) the cut that closes chunk [seq + depth - 1], i.e. the
         cut event of seq [seq + depth - 1], when the run got there. *)
      match Hashtbl.find_opt cut_ts (seq + queue_depth - 1) with
      | Some bound_ts ->
          Alcotest.(check bool)
            (Printf.sprintf "verdict %d within pipeline bound" seq)
            true (ts <= bound_ts)
      | None -> ())
    verdicts

(* --- netted burst eligibility: cycle identity vs the classic path -------- *)

let test_netted_burst_cycle_identity () =
  (* The replay primary is an unreplicated netted run: on Blocks, the
     quiet-cycle skip runs its lone replica up to the [Window.horizon],
     which is clipped to [Netdev.next_event], and refreshes the device
     clock after accounting. Identity check: a Blocks run with tracing
     off must land on exactly the cycles of the per-cycle [Interp] run,
     and on those of a Blocks run with a trace ring, which bursts as
     well and, per the Trace contract, never perturbs simulated time. *)
  let kv ~backend ~traced =
    let config =
      {
        (replay_config ~backend
           ?trace:(if traced then Some { Trace.capacity = 1 lsl 16 } else None)
           ())
        with
        Config.with_net = true;
      }
    in
    let r =
      Kv_run.run ~config ~workload:Ycsb.A ~records:32 ~operations:300 ()
    in
    Alcotest.(check bool) "served to completion" false r.Kv_run.stalled;
    Alcotest.(check int) "no mismatches" 0
      (counter r.Kv_run.sys "replay.mismatches");
    ( System.now r.Kv_run.sys,
      r.Kv_run.elapsed_cycles,
      r.Kv_run.ops_completed,
      r.Kv_run.counters,
      counter r.Kv_run.sys "replay.chunks" )
  in
  let burst = kv ~backend:Config.Blocks ~traced:false in
  let interp = kv ~backend:Config.Interp ~traced:false in
  let classic = kv ~backend:Config.Blocks ~traced:true in
  Alcotest.(check bool) "blocks burst = interp classic" true (burst = interp);
  Alcotest.(check bool) "blocks burst = blocks traced" true (burst = classic)

(* --- replay metrics and gauges ------------------------------------------- *)

let test_replay_gauges () =
  let sys = System.create ~config:(replay_config ()) ~program:(md5 ()) in
  System.run sys ~max_cycles:200_000_000;
  let m = System.metrics sys in
  (match Metrics.find_gauge m "net.replay_queue_hwm" with
  | Some g ->
      Alcotest.(check bool) "queue hwm positive" true (Metrics.value g >= 1.0)
  | None -> Alcotest.fail "net.replay_queue_hwm not registered");
  (match Metrics.find_gauge m "replay.checker_idle_cycles" with
  | Some g ->
      Alcotest.(check bool) "idle cycles non-negative" true
        (Metrics.value g >= 0.0)
  | None -> Alcotest.fail "replay.checker_idle_cycles not registered");
  match Metrics.find_histogram m "replay.lag_cycles" with
  | Some h ->
      Alcotest.(check bool) "one lag sample per chunk" true
        (List.length (Metrics.samples h) = counter sys "replay.chunks")
  | None -> Alcotest.fail "replay.lag_cycles not registered"

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "spans filled by their fixed costs are rejected"
      `Quick test_replay_span_floor;
    Alcotest.test_case "healthy run verifies every chunk" `Quick
      test_healthy_run_verifies;
    Alcotest.test_case "deterministic across runs and backends" `Quick
      test_deterministic_across_runs_and_backends;
    Alcotest.test_case "stopped run resumes to the unstopped result" `Quick
      test_stop_and_resume;
    Alcotest.test_case "transient fault recovered" `Quick
      test_transient_fault_recovered;
    Alcotest.test_case "flip into a page the guest never writes" `Quick
      test_flip_in_unwritten_page;
    Alcotest.test_case "detection-lag bound" `Quick test_detection_lag_bound;
    Alcotest.test_case "netted burst cycle identity" `Quick
      test_netted_burst_cycle_identity;
    Alcotest.test_case "replay metrics and gauges" `Quick test_replay_gauges;
  ]
