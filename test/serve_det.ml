(* Seq/Par determinism of the serving harness at scale: a 10k-request
   YCSB run through the NIC must produce bit-for-bit identical request
   outcome logs, end-state signatures, and cycle counts on both
   engines — including a run that injects a fault and recovers through
   rollback, where the harness additionally exercises client-side
   retransmission over the DMA hole. Kept in its own binary because
   each pair costs tens of seconds; the fast serve checks live in the
   main suite ([test_serve.ml]). *)

open Rcoe_core
open Rcoe_harness
open Rcoe_workloads
module Arch = Rcoe_machine.Arch

(* Chunk 16000 amortises the parallel engine's per-[System.run] domain
   spawn/join over 40x more cycles than the CLI default; determinism
   only needs the two engines to share the same chunk. *)
let chunk = 16_000
let records = 128
let requests = 10_000

let base_config ~checkpoint_every () =
  {
    (Runner.config_for ~mode:Config.CC ~nreplicas:2 ~arch:Arch.X86
       ~with_net:true ~seed:5 ())
    with
    Config.checkpoint_every;
    max_rollbacks = 3;
  }

let parallel_config cfg =
  let cfg =
    { cfg with Config.engine = Config.Parallel; exception_barriers = true }
  in
  let program =
    Loadgen.program_for ~config:cfg ~workload:Ycsb.A ~records ~requests
  in
  let elig = Eligibility.check ~config:cfg ~program in
  Alcotest.(check bool) "kv server parallel-eligible" true
    (Eligibility.eligible elig);
  (match Config.parallel_ineligibility ~net_ok:true cfg with
  | None -> ()
  | Some reason -> Alcotest.failf "parallel rejected: %s" reason);
  cfg

let serve ?fault config =
  Loadgen.run ~config ~workload:Ycsb.A ~records ~requests ~chunk ?fault ()

let check_pair ~label (seq : Loadgen.result) (par : Loadgen.result) =
  Alcotest.(check bool) (label ^ ": seq finished") false seq.Loadgen.stalled;
  Alcotest.(check bool) (label ^ ": par finished") false par.Loadgen.stalled;
  Alcotest.(check int)
    (label ^ ": all answered")
    seq.Loadgen.issued seq.Loadgen.completed;
  Alcotest.(check int)
    (label ^ ": outcome digest")
    seq.Loadgen.outcome_digest par.Loadgen.outcome_digest;
  Alcotest.(check bool)
    (label ^ ": outcome logs identical")
    true
    (seq.Loadgen.outcome_log = par.Loadgen.outcome_log);
  Alcotest.(check bool)
    (label ^ ": end-state signatures identical")
    true
    (seq.Loadgen.end_sigs = par.Loadgen.end_sigs);
  Alcotest.(check int)
    (label ^ ": cycle counts identical")
    (System.now seq.Loadgen.sys)
    (System.now par.Loadgen.sys);
  Alcotest.(check int)
    (label ^ ": rollback counts identical")
    seq.Loadgen.rollbacks par.Loadgen.rollbacks

let test_identity_10k () =
  let base = base_config ~checkpoint_every:0 () in
  let seq = serve base in
  let par = serve (parallel_config base) in
  Alcotest.(check int) "10k run-phase ops" requests seq.Loadgen.run_ops;
  check_pair ~label:"healthy" seq par

let test_identity_10k_fault_rollback () =
  let fault =
    { Loadgen.fault_after = 2_000; fault_bit = 7;
      fault_target = Loadgen.Sig_word }
  in
  let base = base_config ~checkpoint_every:8 () in
  let seq = serve ~fault base in
  let par = serve ~fault (parallel_config base) in
  Alcotest.(check bool) "fault rolled back" true (seq.Loadgen.rollbacks >= 1);
  Alcotest.(check int) "retransmissions identical" seq.Loadgen.retransmits
    par.Loadgen.retransmits;
  Alcotest.(check int) "dup responses identical" seq.Loadgen.dup_responses
    par.Loadgen.dup_responses;
  check_pair ~label:"fault" seq par

(* The ingress drop-and-redeliver lane is pure simulated state (the
   NACK and re-consume happen at FT_Mem_Rep rendezvous, the
   retransmission at a chunk boundary), so a run that drops a corrupted
   DMA frame must still be bit-for-bit identical across engines. *)
let test_identity_ingress_drop () =
  let fault =
    { Loadgen.fault_after = 2_000; fault_bit = 4;
      fault_target = Loadgen.Dma_frame }
  in
  let base =
    { (base_config ~checkpoint_every:0 ()) with Config.ingress_check = true }
  in
  let seq = serve ~fault base in
  let par = serve ~fault (parallel_config base) in
  Alcotest.(check bool) "frame dropped at ingress" true
    (seq.Loadgen.ingress_dropped >= 1);
  Alcotest.(check int) "no client corruption" 0
    seq.Loadgen.counters.Ycsb.corrupted;
  Alcotest.(check int) "ingress drops identical" seq.Loadgen.ingress_dropped
    par.Loadgen.ingress_dropped;
  Alcotest.(check int) "redeliveries identical" seq.Loadgen.redelivered
    par.Loadgen.redelivered;
  check_pair ~label:"ingress" seq par

(* --- replay detection: input-log determinism at scale -------------------- *)

(* A 10k-request serve under replay detection is one long record/replay
   session: every host inject is logged, every chunk is re-executed from
   its delta checkpoint with the logged inputs re-injected at their
   recorded cycles, and a single non-deterministic step anywhere would
   surface as a chunk mismatch. Zero mismatches over 10k requests IS the
   input-log determinism property; running the whole session twice per
   execution backend (and across backends) then pins the bit-for-bit
   half: identical outcome logs, end signatures, and cycle counts. *)

let replay_serve_config ~backend =
  {
    (Runner.config_for ~mode:Config.Base ~nreplicas:1 ~arch:Arch.X86
       ~with_net:true ~seed:5 ())
    with
    Config.detection = Config.Replay;
    replay_chunk_ticks = 2;
    replay_queue_depth = 3;
    replay_checkers = 2;
    checkpoint_depth = 4;
    max_rollbacks = 3;
    exec_backend = backend;
  }

let replay_serve ?fault ~backend () =
  Loadgen.run
    ~config:(replay_serve_config ~backend)
    ~workload:Ycsb.A ~records ~requests ~chunk ?fault ()

let replay_counter = System.counter

let check_replay_clean ~label (r : Loadgen.result) =
  Alcotest.(check bool) (label ^ ": finished") false r.Loadgen.stalled;
  Alcotest.(check int)
    (label ^ ": all answered")
    r.Loadgen.issued r.Loadgen.completed;
  Alcotest.(check int)
    (label ^ ": every chunk verified")
    (replay_counter r.Loadgen.sys "replay.chunks")
    (replay_counter r.Loadgen.sys "replay.chunks_verified");
  Alcotest.(check int)
    (label ^ ": zero mismatches")
    0
    (replay_counter r.Loadgen.sys "replay.mismatches")

let check_replay_pair ~label (a : Loadgen.result) (b : Loadgen.result) =
  Alcotest.(check int)
    (label ^ ": outcome digest")
    a.Loadgen.outcome_digest b.Loadgen.outcome_digest;
  Alcotest.(check bool)
    (label ^ ": outcome logs identical")
    true
    (a.Loadgen.outcome_log = b.Loadgen.outcome_log);
  Alcotest.(check bool)
    (label ^ ": end-state signatures identical")
    true
    (a.Loadgen.end_sigs = b.Loadgen.end_sigs);
  Alcotest.(check int)
    (label ^ ": cycle counts identical")
    (System.now a.Loadgen.sys)
    (System.now b.Loadgen.sys)

let test_replay_identity_10k () =
  let i1 = replay_serve ~backend:Config.Interp () in
  let i2 = replay_serve ~backend:Config.Interp () in
  let b1 = replay_serve ~backend:Config.Blocks () in
  let b2 = replay_serve ~backend:Config.Blocks () in
  Alcotest.(check int) "10k run-phase ops" requests i1.Loadgen.run_ops;
  check_replay_clean ~label:"interp" i1;
  check_replay_clean ~label:"blocks" b1;
  check_replay_pair ~label:"interp run-to-run" i1 i2;
  check_replay_pair ~label:"blocks run-to-run" b1 b2;
  check_replay_pair ~label:"interp = blocks" i1 b1;
  (* Same service as the lockstep reference: request outcomes must agree
     with a CC-DMR serve of the same load (completion *order* differs
     with the timing, the outcome set must not). *)
  let lockstep = serve (base_config ~checkpoint_every:0 ()) in
  Alcotest.(check int) "outcome set = lockstep reference"
    lockstep.Loadgen.outcome_sorted_digest i1.Loadgen.outcome_sorted_digest

let test_replay_fault_10k () =
  let fault =
    { Loadgen.fault_after = 2_000; fault_bit = 7;
      fault_target = Loadgen.Sig_word }
  in
  let a = replay_serve ~fault ~backend:Config.Interp () in
  let b = replay_serve ~fault ~backend:Config.Interp () in
  Alcotest.(check bool) "fault fired" true a.Loadgen.fault_fired;
  Alcotest.(check bool) "mismatch detected" true
    (replay_counter a.Loadgen.sys "replay.mismatches" >= 1);
  Alcotest.(check bool) "rolled back" true (a.Loadgen.rollbacks >= 1);
  Alcotest.(check bool) "finished" false a.Loadgen.stalled;
  Alcotest.(check int) "all answered" a.Loadgen.issued a.Loadgen.completed;
  Alcotest.(check int) "no client corruption" 0
    a.Loadgen.counters.Ycsb.corrupted;
  (* Recovered run serves the same outcome set as a fault-free one. *)
  let clean = replay_serve ~backend:Config.Interp () in
  Alcotest.(check int) "outcome set = fault-free reference"
    clean.Loadgen.outcome_sorted_digest a.Loadgen.outcome_sorted_digest;
  check_replay_pair ~label:"fault run-to-run" a b

let () =
  Alcotest.run "serve-determinism"
    [
      ( "serve-det",
        [
          Alcotest.test_case "seq = par, 10k requests" `Slow test_identity_10k;
          Alcotest.test_case "seq = par, 10k requests + fault/rollback" `Slow
            test_identity_10k_fault_rollback;
          Alcotest.test_case "seq = par, 10k requests + ingress drop" `Slow
            test_identity_ingress_drop;
        ] );
      ( "replay-det",
        [
          Alcotest.test_case "record/replay determinism, 10k requests" `Slow
            test_replay_identity_10k;
          Alcotest.test_case "record/replay fault campaign, 10k requests"
            `Slow test_replay_fault_10k;
        ] );
    ]
