(* The repository benchmark.

   Four workloads drive the public API from outside the library:

   - lockstep-cc   Whetstone on CC-DMR, Sequential engine, Blocks backend,
                   incremental checkpoints; heaviest Sched round logic.
   - lockstep-par  the same on the Parallel engine; must equal
                   lockstep-cc in cycles and output.
   - replay-md5    md5sum on an unreplicated primary with replay
                   detection and one transient signature flip that
                   rollback recovers.
   - serve-ycsb    YCSB-A through the NIC on CC-DMR with ingress
                   checksums, open-loop arrivals and one signature flip.

   Each workload runs as a few parts, one per part seed derived from the
   workload seed, and pools the simulated results over them: a single
   seed's catch-up distances or fault position would otherwise dominate
   the figures.

   [--trace 0] measures the end-to-end metrics; [--trace 1] is the
   separate traced run that records spans around every call into a
   layer and reports the per-layer metrics. The last line of standard
   output is one JSON object; every check that fails is printed, counted
   in [failed], and makes the process exit 1. See README.md. *)

open Rcoe_core
module Json = Rcoe_obs.Json
module Metrics = Rcoe_obs.Metrics
module Hdr = Rcoe_obs.Hdr
module Reqtrace = Rcoe_obs.Reqtrace
module Loadgen = Rcoe_harness.Loadgen
module Runner = Rcoe_harness.Runner
module Ycsb = Rcoe_workloads.Ycsb
module Machine = Rcoe_machine.Machine

(* --- options -------------------------------------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  short : bool;
}

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--short]"

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and short = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := v = "1"; go rest
    | "--short" :: rest -> short := true; go rest
    | [] -> ()
    | a :: _ ->
        prerr_endline ("bench: unknown argument " ^ a ^ "\nusage: " ^ usage);
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace;
    short = !short;
  }

(* --- spans ---------------------------------------------------------------- *)

(* Spans are recorded only in the traced run, in memory, and written out
   when the benchmark ends. A span's parent is the innermost span open
   when it started. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (* -1 at the root *)
  sp_start : float;
  mutable sp_stop : float;
}

let clock = Unix.gettimeofday
let recording = ref false
let spans : span list ref = ref []
let n_spans = ref 0
let open_spans : int list ref = ref []

let span name f =
  if not !recording then f ()
  else begin
    let s =
      {
        sp_id = !n_spans;
        sp_name = name;
        sp_parent = (match !open_spans with p :: _ -> p | [] -> -1);
        sp_start = clock ();
        sp_stop = nan;
      }
    in
    incr n_spans;
    spans := s :: !spans;
    open_spans := s.sp_id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.sp_stop <- clock ();
        open_spans := List.tl !open_spans)
      f
  end

(* [f ()] and its wall time, inside a span of that name. *)
let timed name f =
  span name (fun () ->
      let t0 = clock () in
      let r = f () in
      (r, clock () -. t0))

(* A span's self time: its duration minus the union of the intervals
   its children cover. *)
let self_times all =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.sp_parent (s.sp_start, s.sp_stop)) all;
  fun s ->
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = max a reach in
          if b > a then (acc +. (b -. a), b) else (acc, reach))
        (0.0, s.sp_start)
        (List.sort compare (Hashtbl.find_all kids s.sp_id))
    in
    s.sp_stop -. s.sp_start -. covered

(* --- small helpers -------------------------------------------------------- *)

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
      let a = Array.of_list l and n = List.length l in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile xs q =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let sum = List.fold_left ( +. ) 0.0
let fmax = List.fold_left max 0.0
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))
let pct ~base v = 100.0 *. (v -. base) /. base
let isum f = List.fold_left (fun a x -> a + f x) 0

let counter sys name =
  match Metrics.find_counter (System.metrics sys) name with
  | Some c -> Metrics.count c
  | None -> 0

let gauge sys name =
  match Metrics.find_gauge (System.metrics sys) name with
  | Some g -> Metrics.value g
  | None -> 0.0

let samples sys name =
  match Metrics.find_histogram (System.metrics sys) name with
  | Some h -> Metrics.samples h
  | None -> []

(* Inputs derive from the workload seed through this mix, so one seed
   always gives the same inputs. *)
let derive seed salt =
  let x = ((seed * 0x2545F491) + (salt * 0x9E3779B1)) land 0x3FFFFFFF in
  (x lxor (x lsr 13)) land 0xFFFFF

let part_seeds seed n = List.init n (fun p -> derive seed (100 + p) + (p lsl 20))
let mcps cycles wall = float_of_int cycles /. wall /. 1e6
let fresh_heap () = Gc.full_major ()

(* --- host-speed calibration ----------------------------------------------- *)

(* Other tenants of a shared host slow every program on it, by up to
   half, in spells of about 100 ms, and shift its mean speed over
   minutes. The timed runs therefore bracket each part with runs of this
   fixed interpreter loop, which depends on nothing in the library, and
   count host time in its units: one calibration run counts as
   [calib_nominal_s]. A change to the simulator moves the parts' time
   and not the loop's. *)
let calib_code = Array.init 256 (fun i -> ((i * 7) + 3) land 7)
let calib_mem = Array.make 65536 0
let calib_regs = Array.make 8 1
let calib_steps = 320_000

(* About the loop's time on an idle 2.0 GHz Xeon core. *)
let calib_nominal_s = 1e-3

let calibrate () =
  let r = calib_regs and m = calib_mem and pc = ref 0 in
  let t0 = clock () in
  for _ = 1 to calib_steps do
    (match calib_code.(!pc) with
    | 0 -> r.(0) <- r.(0) + r.(1)
    | 1 -> r.(1) <- r.(1) lxor (r.(0) lsl 1)
    | 2 -> m.(r.(2) land 65535) <- r.(0)
    | 3 -> r.(3) <- m.((r.(1) * 31) land 65535)
    | 4 -> r.(2) <- r.(2) + 17
    | 5 -> r.(4) <- (r.(3) * 3) + r.(0)
    | 6 -> if r.(4) land 1 = 0 then pc := (!pc + 3) land 255
    | _ -> r.(5) <- r.(5) + 1);
    pc := (!pc + 1) land 255
  done;
  clock () -. t0

(* Host time of work measured in [wall] seconds while the calibration
   runs took [calib] seconds on average, in calibrated seconds. *)
let calibrated ~calib wall = wall *. calib_nominal_s /. calib

(* --- workloads ------------------------------------------------------------ *)

type kind = Lockstep of Config.engine | Replay_md5 | Serve

let workloads =
  [
    ("lockstep-cc", Lockstep Config.Sequential);
    ("lockstep-par", Lockstep Config.Parallel);
    ("replay-md5", Replay_md5);
    ("serve-ycsb", Serve);
  ]

(* Per-part sizes; [items] is the work one part completes: Whetstone
   loops, md5 digests, or run-phase requests. [slice] is the traced
   run's [System.run] slice, in simulated cycles. *)
type sizes = { parts : int; items : int; slice : int }

let sizes kind ~short =
  let s parts items slice =
    if short then { parts = 2; items = max 40 (items / 10); slice = slice / 10 }
    else { parts; items; slice }
  in
  match kind with
  | Lockstep _ -> s 8 625 250_000
  | Replay_md5 -> s 4 500 250_000
  | Serve -> s 4 500 0

let max_cycles = 2_000_000_000

(* YCSB load-phase records per serve part: under 1% of the requests. *)
let records = 16
let trace_ring = Some { Rcoe_obs.Trace.capacity = 65536 }

let base_config ~pseed ~with_net backend =
  {
    (Runner.config_for ~mode:Config.Base ~nreplicas:1
       ~arch:Rcoe_machine.Arch.X86 ~with_net ~seed:(1 + derive pseed 1) ())
    with
    Config.exec_backend = backend;
    ingress_check = with_net;
    trace = (if with_net then trace_ring else None);
  }

let config_of kind ~pseed =
  let cc ~with_net =
    {
      (Runner.config_for ~mode:Config.CC ~nreplicas:2
         ~arch:Rcoe_machine.Arch.X86 ~with_net ~seed:(1 + derive pseed 1) ())
      with
      Config.exec_backend = Config.Blocks;
      exception_barriers = true;
      max_rollbacks = 3;
    }
  in
  match kind with
  | Lockstep engine ->
      {
        (cc ~with_net:false) with
        Config.engine;
        checkpoint_every = 8;
        checkpoint_depth = 2;
        checkpoint_mode = Config.Incremental;
      }
  | Replay_md5 ->
      {
        (base_config ~pseed ~with_net:false Config.Blocks) with
        Config.detection = Config.Replay;
        replay_chunk_ticks = 4;
        replay_checkers = 1;
        max_rollbacks = 3;
      }
  | Serve ->
      (* Loadgen.run forces the NIC and a trace ring; set both here so
         set-up analyses and creates exactly the system it serves. *)
      {
        (cc ~with_net:true) with
        Config.ingress_check = true;
        checkpoint_every = 2;
        trace = trace_ring;
      }

let program_of kind sz ~pseed ~config =
  match kind with
  | Lockstep _ ->
      Rcoe_workloads.Whetstone.program ~loops:sz.items ~branch_count:false ()
  | Replay_md5 ->
      Rcoe_workloads.Md5sum.program ~message_words:128 ~iters:sz.items
        ~seed:(1 + derive pseed 3) ~branch_count:false ()
  | Serve ->
      Loadgen.program_for ~config ~workload:Ycsb.A ~records
        ~requests:sz.items

(* --- set-up --------------------------------------------------------------- *)

type setup = {
  program_s : float;
  lint_s : float;
  eligibility_s : float;
  create_s : float;
}

(* setup_s is program build plus System.create, plus Eligibility.check
   for the served program. The standalone Lint.analyze call is timed for
   the per-layer view only: System.create runs the analyzer itself. *)
let setup_total s = s.program_s +. s.eligibility_s +. s.create_s

let setup_once kind sz ~pseed ~lint =
  let config = config_of kind ~pseed in
  let program, program_s =
    timed "setup.program" (fun () -> program_of kind sz ~pseed ~config)
  in
  let lint_s =
    if lint then
      snd (timed "setup.lint" (fun () -> ignore (Rcoe_isa.Lint.analyze program)))
    else 0.0
  in
  let eligibility_s =
    match kind with
    | Serve ->
        let e, t =
          timed "setup.eligibility" (fun () -> Eligibility.check ~config ~program)
        in
        if not (Eligibility.eligible e) then
          fail "serve-ycsb: footprint analyzer rejected the kvstore: %s"
            (Eligibility.describe e);
        t
    | _ -> 0.0
  in
  let sys, create_s =
    timed "setup.create" (fun () -> System.create ~config ~program)
  in
  ({ program_s; lint_s; eligibility_s; create_s }, sys)

(* One set-up's host time. It starts from a compacted heap, so its large
   allocations find the same memory state every time. *)
let setup_time kind sz ~pseed () =
  Gc.compact ();
  setup_total (fst (setup_once kind sz ~pseed ~lint:false))

(* --- compute parts -------------------------------------------------------- *)

let stopped sys = System.finished sys || System.halted sys <> None

(* Advance [n] cycles from now: in one call, or in fixed slices. *)
let advance ?slice sys n =
  match slice with
  | None -> System.run sys ~max_cycles:n
  | Some s ->
      let target = System.now sys + n in
      while (not (stopped sys)) && System.now sys < target do
        span "run.slice" (fun () ->
            System.run sys ~max_cycles:(min s (target - System.now sys)))
      done

let flip_signature sys ~bit =
  let addr = System.sig_base sys 0 + 1 in
  Rcoe_machine.Mem.flip_bit (System.machine sys).Machine.mem ~addr ~bit;
  Rcoe_obs.Trace.injection (System.trace sys) ~addr ~bit

(* One run to completion; the wall time covers System.run and the replay
   drain, not the create. *)
let compute_run ?slice ?fault ~config program =
  let sys = System.create ~config ~program in
  let t0 = clock () in
  (match fault with
  | Some (at, bit) ->
      advance ?slice sys (at - System.now sys);
      flip_signature sys ~bit
  | None -> ());
  advance ?slice sys max_cycles;
  span "drain" (fun () -> System.replay_drain sys);
  (sys, clock () -. t0)

(* A part's inputs and its Base reference run (Blocks backend). *)
type cpart = {
  c_pseed : int;
  c_config : Config.t;
  c_program : Rcoe_isa.Program.t;
  c_fault : (int * int) option;
  c_base_cycles : int;
  c_base_output : string;
  c_base_wall : float;
}

(* The replay fault: a signature flip at a seed-derived cycle between a
   quarter and half of the Base run. *)
let replay_fault ~pseed ~base_cycles =
  let frac = 0.25 +. (float_of_int (derive pseed 4 mod 1000) /. 4000.0) in
  (int_of_float (frac *. float_of_int base_cycles), derive pseed 5 mod 30)

let make_cpart kind sz pseed =
  let config = config_of kind ~pseed in
  let program = program_of kind sz ~pseed ~config in
  let base, base_wall =
    span "ref.base_blocks" (fun () ->
        compute_run ~config:(base_config ~pseed ~with_net:false Config.Blocks)
          program)
  in
  if not (System.finished base) then fail "Base reference did not finish";
  let fault =
    match kind with
    | Replay_md5 -> Some (replay_fault ~pseed ~base_cycles:(System.now base))
    | _ -> None
  in
  { c_pseed = pseed; c_config = config; c_program = program; c_fault = fault;
    c_base_cycles = System.now base; c_base_output = System.output base 0;
    c_base_wall = base_wall }

let halt_text sys =
  match System.halted sys with
  | Some h -> System.halt_reason_to_string h
  | None -> if System.finished sys then "finished" else "ran out of cycles"

(* Every replica finished with the Base reference's output. *)
let check_outputs name sys ~reference =
  if not (System.finished sys) then fail "%s: did not finish (%s)" name (halt_text sys);
  let n = (System.config sys).Config.nreplicas in
  if List.length (System.live sys) <> n then
    fail "%s: %d of %d replicas live" name (List.length (System.live sys)) n;
  List.iter
    (fun rid ->
      if System.output sys rid <> reference then
        fail "%s: replica %d output differs from the Base reference" name rid)
    (System.live sys)

(* Every chunk got a verdict, except those a mismatch discarded: at most
   queue depth - 1 in flight behind each mismatched chunk. *)
let check_replay name sys =
  let chunks = counter sys "replay.chunks" in
  let verified = counter sys "replay.chunks_verified" in
  let mismatches = counter sys "replay.mismatches" in
  let discarded = chunks - verified - mismatches in
  let depth = (System.config sys).Config.replay_queue_depth in
  if verified = 0 || discarded < 0 || discarded > mismatches * (depth - 1) then
    fail "%s: %d of %d chunks verified, %d mismatched" name verified chunks
      mismatches;
  if mismatches < 1 || System.rollbacks sys = [] then
    fail "%s: the injected flip was not detected and rolled back" name

(* True when a check failed. *)
let check_part name kind cp sys =
  let before = List.length !failures in
  check_outputs name sys ~reference:cp.c_base_output;
  if kind = Replay_md5 then check_replay name sys;
  List.length !failures > before

(* What the end-to-end metrics need from one finished part. A part is
   one job submitted at cycle 0: its latency is its completion cycle.
   Detection lag: replay reports its largest chunk lag; lockstep
   detects a divergence at the next vote, so the longest a fault can
   stay unvoted is one tick plus the longest barrier wait. *)
type cres = { r_cycles : int; r_base_cycles : int; r_detect : float }

let cres kind cp sys =
  let detect =
    match kind with
    | Replay_md5 -> fmax (samples sys "replay.lag_cycles")
    | _ ->
        float_of_int (System.config sys).Config.tick_interval
        +. fmax (samples sys "sync.barrier_wait_cycles")
  in
  { r_cycles = System.now sys; r_base_cycles = cp.c_base_cycles; r_detect = detect }

(* --- serve parts ---------------------------------------------------------- *)

let pacing = Loadgen.Open { interval = 15_000; max_queue = 64 }

let serve ~config sz ~pseed ~fault =
  let fault =
    if fault then
      Some
        { Loadgen.fault_after = sz.items / 2; fault_bit = derive pseed 6 mod 30;
          fault_target = Loadgen.Sig_word }
    else None
  in
  let t0 = clock () in
  let r =
    Loadgen.run ~config ~workload:Ycsb.A ~records ~requests:sz.items
      ~pacing ~gen_seed:(1 + derive pseed 2)
      ~keep:(records + sz.items + 64) ?fault ()
  in
  (r, clock () -. t0)

(* Run-phase request latencies, from each arrival's due cycle to
   receipt: the retained per-request records, minus the load phase
   (sequence ids below [records]). *)
let run_phase_latencies (r : Loadgen.result) =
  List.filter_map
    (fun ev ->
      match (Json.member "name" ev, Json.member "dur" ev) with
      | Some (Json.String n), Some (Json.Int d) -> (
          match Scanf.sscanf_opt n "req %d" Fun.id with
          | Some id when id >= records -> Some (float_of_int d)
          | _ -> None)
      | _ -> None)
    (Reqtrace.chrome_events r.Loadgen.rt)

(* Detection lag: the largest per-request value, or the system's own
   injection-to-detection latency when no request was open at the
   detection. *)
let serve_detect (r : Loadgen.result) =
  max
    (float_of_int (Hdr.max_value (Reqtrace.detect_hdr r.Loadgen.rt)))
    (fmax (samples r.Loadgen.sys "detect.latency_cycles"))

(* The requests a part failed: all of them when a check failed. *)
let check_serve sz (r : Loadgen.result) ~(reference : Loadgen.result) =
  let before = List.length !failures in
  if r.Loadgen.stalled then fail "serve-ycsb: the serve loop stalled";
  if r.Loadgen.counters.Ycsb.corrupted <> 0 then
    fail "serve-ycsb: %d corrupted responses" r.Loadgen.counters.Ycsb.corrupted;
  if r.Loadgen.completed <> records + sz.items then
    fail "serve-ycsb: %d of %d requests completed" r.Loadgen.completed
      (records + sz.items);
  if not r.Loadgen.fault_fired then fail "serve-ycsb: the fault never fired";
  if r.Loadgen.rollbacks < 1 then fail "serve-ycsb: the flip was not rolled back";
  if r.Loadgen.outcome_sorted_digest <> reference.Loadgen.outcome_sorted_digest
  then fail "serve-ycsb: outcome set differs from the fault-free Base reference";
  let n = List.length (run_phase_latencies r) in
  if n <> sz.items then
    fail "serve-ycsb: %d run-phase latency samples, expected %d" n sz.items;
  if List.length !failures > before then r.Loadgen.issued
  else r.Loadgen.issued - r.Loadgen.completed + r.Loadgen.counters.Ycsb.corrupted

(* --- results -------------------------------------------------------------- *)

type value = I of int | F of float

let metrics : (string * value * string) list ref = ref []
let put name unit v = metrics := (name, v, unit) :: !metrics
let puti name unit v = put name unit (I v)
let putf name unit v = put name unit (F v)

let json_number = function
  | I n -> string_of_int n
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"

let print_result ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter
    (fun (n, v, u) ->
      Printf.printf "%-30s %22s %s\n" n
        (match v with I i -> string_of_int i | F f -> Printf.sprintf "%.6g" f)
        u)
    ms;
  Printf.printf "%-30s %22.6g %s\n" "fail_share"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "failed/attempted";
  List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) (List.rev !failures);
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failures = []) attempted failed body

(* A part's live heap: the heap after a full collection at its end,
   while its finished system is still held. This is the state a part
   retains, not its transient peak: the heap's top size would also count
   garbage the collector had not reached yet, which depends on when it
   ran (and, with checker or replica domains, on their timing). *)
let live_words = ref []

let note_live () =
  Gc.full_major ();
  live_words := (Gc.quick_stat ()).Gc.live_words :: !live_words

(* Averaged over part runs: a part's live heap depends on where its fault
   left the checkpoint ring. *)
let live_heap_mb () =
  mean (List.map float_of_int !live_words) *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

let put_end_to_end ~setup_s ~sim_mcps ~req_per_s ~cycles ~overhead ~lat ~detect =
  putf "setup_s" "s" setup_s;
  putf "sim_mcps" "Mcycles/s" sim_mcps;
  putf "req_per_s" "req/s" req_per_s;
  puti "sim_cycles" "cycles" cycles;
  putf "overhead_pct" "%" overhead;
  puti "lat_p50_cycles" "cycles" (int_of_float (percentile lat 0.5));
  puti "lat_p99_cycles" "cycles" (int_of_float (percentile lat 0.99));
  puti "detect_lag_max_cycles" "cycles" (int_of_float detect);
  putf "live_heap_mb" "MiB" (live_heap_mb ())

(* [f ()] is one part, returning its result and host time. The part runs
   whole, between five calibration runs before it and five after, so no
   work of the part (a replay checker domain, say) overlaps a
   calibration. The result and the part's time in calibrated seconds,
   against the mean of its ten calibration runs. *)
let bracketed f =
  let calibs () = List.init 5 (fun _ -> calibrate ()) in
  fresh_heap ();
  let before = calibs () in
  let r, wall = f () in
  (r, calibrated ~calib:(mean (before @ calibs ())) wall)

(* Repeat [one] until [seconds] have been spent measuring (at least
   [min_reps] times). [one] returns its parts' [bracketed] times, in
   the same part order each time. The result is the sum over parts of
   each part's median time, and the median set-up time, both in
   calibrated seconds. A part's median drops the repetitions in which
   other tenants slowed it more than they slowed its calibration runs.
   Three set-ups run before each repetition, so the set-up samples
   spread over the whole measurement, each against the three
   calibration runs that follow them. *)
let repeat ~seconds ~min_reps ~setup one =
  let t0 = clock () in
  let rec go reps setups n =
    if n >= min_reps && clock () -. t0 >= seconds then (reps, setups)
    else begin
      let walls = List.init 3 (fun _ -> setup ()) in
      let calib = mean (List.init 3 (fun _ -> calibrate ())) in
      let setups = List.map (calibrated ~calib) walls @ setups in
      fresh_heap ();
      go (one () :: reps) setups (n + 1)
    end
  in
  let reps, setups = go [] [] 0 in
  let part_median i = median (List.map (fun r -> List.nth r i) reps) in
  let total = sum (List.init (List.length (List.hd reps)) part_median) in
  Printf.printf "timed repetitions: %d, calibrated %s s\n" (List.length reps)
    (String.concat " " (List.rev_map (fun r -> Printf.sprintf "%.4f" (sum r)) reps));
  (total, median setups)

(* --- the timed run (--trace 0) -------------------------------------------- *)

(* Every repetition runs every part; the first repetition's simulated
   results are the metrics, and each later one must repeat them. Every
   part run is an attempt, and fails if any of its checks fails. *)
let timed_compute o name kind sz =
  let pseeds = part_seeds o.seed sz.parts in
  let parts = List.map (make_cpart kind sz) pseeds in
  (* lockstep-par must equal lockstep-cc: run the Sequential engine once. *)
  let seq_ref cp =
    if kind <> Lockstep Config.Parallel then None
    else
      let s, _ =
        compute_run ~config:{ cp.c_config with Config.engine = Config.Sequential }
          cp.c_program
      in
      Some (System.now s, System.output s 0)
  in
  let seq_refs = List.map seq_ref parts in
  let attempted = ref 0 and failed = ref 0 and first = ref None in
  let wall, setup_s =
    repeat ~seconds:o.seconds ~min_reps:(if o.short then 1 else 3)
      ~setup:(setup_time kind sz ~pseed:(List.hd pseeds)) (fun () ->
        let pieces, res =
          List.split
            (List.map2
               (fun cp sref ->
                 let sys, piece =
                   bracketed (fun () ->
                       compute_run ?fault:cp.c_fault ~config:cp.c_config cp.c_program)
                 in
                 note_live ();
                 incr attempted;
                 if check_part name kind cp sys then incr failed;
                 (match sref with
                 | Some (c, out) when c <> System.now sys || out <> System.output sys 0 ->
                     fail "%s: cycles or output differ from the Sequential engine" name
                 | _ -> ());
                 (piece, cres kind cp sys))
               parts seq_refs)
        in
        (match !first with
        | None -> first := Some res
        | Some f ->
            if f <> res then fail "%s: repetitions differ in simulated results" name);
        pieces)
  in
  let res = Option.get !first in
  let cycles = isum (fun r -> r.r_cycles) res in
  let base = isum (fun r -> r.r_base_cycles) res in
  put_end_to_end ~setup_s ~sim_mcps:(mcps cycles wall)
    ~req_per_s:(float_of_int (sz.items * sz.parts) /. wall)
    ~cycles
    ~overhead:(pct ~base:(float_of_int base) (float_of_int cycles))
    ~lat:(List.map (fun r -> float_of_int r.r_cycles) res)
    ~detect:(fmax (List.map (fun r -> r.r_detect) res));
  (!attempted, !failed)

let serve_base sz pseed backend =
  serve ~config:(base_config ~pseed ~with_net:true backend) sz ~pseed ~fault:false

(* As [timed_compute]. In an open loop the arrival schedule fixes the
   run's length, so the cost of replication shows in latency: the
   overhead is the mean run-phase latency over the fault-free Base
   run's. *)
let timed_serve o sz =
  let pseeds = part_seeds o.seed sz.parts in
  let refs = List.map (fun p -> fst (serve_base sz p Config.Blocks)) pseeds in
  let attempted = ref 0 and failed = ref 0 and first = ref None in
  let wall, setup_s =
    repeat ~seconds:o.seconds ~min_reps:(if o.short then 1 else 3)
      ~setup:(setup_time Serve sz ~pseed:(List.hd pseeds)) (fun () ->
        let pieces, res =
          List.split
            (List.map2
               (fun pseed reference ->
                 let r, piece =
                   bracketed (fun () ->
                       serve ~config:(config_of Serve ~pseed) sz ~pseed ~fault:true)
                 in
                 note_live ();
                 attempted := !attempted + r.Loadgen.issued;
                 failed := !failed + check_serve sz r ~reference;
                 (* Keep what the metrics need, not the system. *)
                 ( piece,
                   ( System.now r.Loadgen.sys, run_phase_latencies r, serve_detect r,
                     r.Loadgen.outcome_digest ) ))
               pseeds refs)
        in
        (match !first with
        | None -> first := Some res
        | Some f ->
            if f <> res then fail "serve-ycsb: repetitions differ in cycles or outcomes");
        pieces)
  in
  let res = Option.get !first in
  let lat = List.concat_map (fun (_, l, _, _) -> l) res in
  let base_lat = List.concat_map run_phase_latencies refs in
  let cycles = isum (fun (c, _, _, _) -> c) res in
  put_end_to_end ~setup_s ~sim_mcps:(mcps cycles wall)
    ~req_per_s:(float_of_int (sz.items * sz.parts) /. wall)
    ~cycles
    ~overhead:(pct ~base:(mean base_lat) (mean lat))
    ~lat ~detect:(fmax (List.map (fun (_, _, d, _) -> d) res));
  (!attempted, !failed)

(* --- the traced run (--trace 1) ------------------------------------------- *)

(* Per-layer counts of one system, from its metrics registry and block
   caches. *)
let layer_counts sys =
  let n = (System.config sys).Config.nreplicas in
  let pages, inval =
    List.fold_left
      (fun (pages, inval) rid ->
        match Rcoe_kernel.Kernel.block_cache (System.kernel sys rid) with
        | Some bc ->
            let s = Rcoe_machine.Blockc.stats bc in
            (pages + s.Rcoe_machine.Blockc.pages_decoded,
             inval + s.Rcoe_machine.Blockc.invalidations)
        | None -> (pages, inval))
      (0, 0) (List.init n Fun.id)
  in
  let c name = (name, float_of_int (counter sys name)) in
  let g name = (name, gauge sys name) in
  [
    ("exec.blockc_pages_decoded", float_of_int pages);
    ("exec.blockc_invalidations", float_of_int inval);
    c "kernel.ticks_delivered"; c "sync.rounds"; c "sync.votes";
    c "sync.rendezvous"; c "sync.ipis"; c "catchup.bp_fires";
    c "catchup.single_steps";
    ("sync.barrier_wait_cycles.sum", sum (samples sys "sync.barrier_wait_cycles"));
    ("catchup.cycles.sum", sum (samples sys "catchup.cycles"));
    c "ckpt.taken"; c "ckpt.words_copied"; c "ckpt.words_skipped";
    ("ckpt.cost_cycles.sum", sum (samples sys "ckpt.cost_cycles"));
    c "mask.rollbacks"; c "replay.chunks"; c "replay.chunks_verified";
    c "replay.mismatches";
    ("replay.lag_cycles.max", fmax (samples sys "replay.lag_cycles"));
    g "net.replay_queue_hwm"; g "replay.checker_idle_cycles";
    c "net.ingress_checked"; c "net.ingress_dropped"; g "net.rx_ring_hwm";
    g "net.rx_dropped"; g "net.tx_sent"; g "trace.dropped_events";
  ]

(* Counts pooled over parts: summed, except the high-water marks and the
   lag maximum, which take the largest. *)
let pool systems =
  let counts = List.map layer_counts systems in
  List.map
    (fun (name, _) ->
      let vs = List.map (List.assoc name) counts in
      ( name,
        if List.mem name
             [ "replay.lag_cycles.max"; "net.replay_queue_hwm"; "net.rx_ring_hwm" ]
        then fmax vs
        else sum vs ))
    (List.hd counts)

let count_unit name =
  if List.mem name [ "ckpt.words_copied"; "ckpt.words_skipped" ] then "words"
  else if String.ends_with ~suffix:".sum" name || String.ends_with ~suffix:".max" name
          || name = "replay.checker_idle_cycles"
  then "cycles"
  else "count"

let put_count pooled name = puti name (count_unit name) (int_of_float (List.assoc name pooled))

(* Checkpoint host cost on a finished system: capture the same cut
   repeatedly (without clearing dirty bits) and restore it in place. *)
let ckpt_probe sys =
  let mem = (System.machine sys).Machine.mem and layout = System.layout sys in
  let replicas =
    List.map
      (fun rid -> (rid, System.kernel sys rid, System.replica_done sys rid))
      (System.live sys)
  in
  let capture kind =
    Checkpoint.capture ~clear_dirty:false mem layout ~kind ~cycle:(System.now sys)
      ~round_seq:0 ~ticks:0 ~prim:(System.primary sys) ~replicas
  in
  let us f =
    median
      (List.init 7 (fun _ ->
           let t0 = clock () in
           f ();
           (clock () -. t0) *. 1e6))
  in
  let full = capture Checkpoint.Full in
  let full_us, delta_us =
    span "probe.ckpt_capture" (fun () ->
        ( us (fun () -> ignore (capture Checkpoint.Full)),
          us (fun () -> ignore (capture Checkpoint.Delta)) ))
  in
  let ring = Checkpoint.create ~depth:1 in
  Checkpoint.push ring full;
  let restore_us =
    span "probe.ckpt_restore" (fun () ->
        us (fun () -> Checkpoint.restore_memory mem layout ring full))
  in
  putf "ckpt.capture_full_us" "us" full_us;
  putf "ckpt.capture_delta_us" "us" delta_us;
  putf "ckpt.restore_us" "us" restore_us;
  putf "ckpt.ns_per_word" "ns/word"
    (restore_us *. 1e3 /. float_of_int (max 1 (Checkpoint.total_words full)))

(* What the traced run measured, beyond the pooled counts. *)
type layers = {
  l_setup : setup;
  l_absint_us : float;
  l_base_interp : int * float;  (* cycles, wall *)
  l_base_blocks : int * float;
  l_wall : float;  (* the untraced run *)
  l_traced_wall : float;
  l_nreplicas : int;
  l_speedup : float;
  l_pooled : (string * float) list;
  l_probe : System.t;  (* a finished system for the checkpoint probe *)
  l_pipeline_s : float;
  l_loadgen : (string * int) list;
  l_attr : (string * int) list;
  l_report_s : float;
  l_export_s : float;
  l_trace_on_ratio : float;
  l_gc : float * int;
}

let attr_classes =
  [ "compute"; "sync_wait"; "vote"; "checkpoint"; "rollback_stall";
    "ingress_stall"; "replay_lag" ]

let put_layers l =
  let s = l.l_setup and count = put_count l.l_pooled in
  putf "setup.program_s" "s" s.program_s;
  putf "setup.lint_s" "s" s.lint_s;
  putf "setup.eligibility_s" "s" s.eligibility_s;
  putf "setup.create_s" "s" s.create_s;
  putf "analysis.absint_host_us" "us" l.l_absint_us;
  let rate (c, w) = mcps c w in
  putf "exec.base_interp_mcps" "Mcycles/s" (rate l.l_base_interp);
  putf "exec.base_blocks_mcps" "Mcycles/s" (rate l.l_base_blocks);
  List.iter count
    [ "exec.blockc_pages_decoded"; "exec.blockc_invalidations";
      "kernel.ticks_delivered"; "sync.rounds"; "sync.votes"; "sync.rendezvous";
      "sync.ipis"; "catchup.bp_fires"; "catchup.single_steps";
      "sync.barrier_wait_cycles.sum"; "catchup.cycles.sum" ];
  (* The per-cycle shell: what the run costs beyond executing every
     replica's instructions at Base-Interp speed. *)
  let shell = l.l_wall -. (float_of_int l.l_nreplicas *. snd l.l_base_interp) in
  putf "sched.shell_s" "s" shell;
  putf "sched.shell_share" "ratio" (shell /. l.l_wall);
  putf "sched.host_us_per_round" "us"
    (shell *. 1e6 /. max 1.0 (List.assoc "sync.rounds" l.l_pooled));
  putf "engine_par.speedup" "ratio" l.l_speedup;
  ckpt_probe l.l_probe;
  List.iter count
    [ "ckpt.taken"; "ckpt.words_copied"; "ckpt.words_skipped";
      "ckpt.cost_cycles.sum"; "mask.rollbacks"; "replay.chunks";
      "replay.chunks_verified"; "replay.mismatches"; "replay.lag_cycles.max";
      "net.replay_queue_hwm"; "replay.checker_idle_cycles" ];
  putf "replay.pipeline_s" "s" l.l_pipeline_s;
  let get k l = Option.value ~default:0 (List.assoc_opt k l) in
  List.iter
    (fun k -> puti ("loadgen." ^ k) "count" (get k l.l_loadgen))
    [ "issued"; "completed"; "retransmits"; "dup_responses"; "redelivered" ];
  List.iter count
    [ "net.ingress_checked"; "net.ingress_dropped"; "net.rx_ring_hwm";
      "net.rx_dropped"; "net.tx_sent" ];
  List.iter (fun k -> puti ("attr." ^ k) "cycles" (get k l.l_attr)) attr_classes;
  putf "obs.report_json_s" "s" l.l_report_s;
  putf "obs.export_s" "s" l.l_export_s;
  count "trace.dropped_events";
  putf "obs.trace_on_ratio" "ratio" l.l_trace_on_ratio;
  let minor, majors = l.l_gc in
  putf "gc.minor_mwords" "Mwords" minor;
  puti "gc.major_collections" "count" majors;
  putf "bench.span_overhead" "ratio" (l.l_traced_wall /. l.l_wall)

(* [f ()] with recording off, and its minor words and major collections. *)
let untraced f =
  fresh_heap ();
  recording := false;
  let a = Gc.quick_stat () in
  let r = Fun.protect ~finally:(fun () -> recording := true) f in
  let b = Gc.quick_stat () in
  (r, ((b.Gc.minor_words -. a.Gc.minor_words) /. 1e6,
       b.Gc.major_collections - a.Gc.major_collections))

(* Run [run] on every part: the results and their summed wall time. *)
let pass parts run =
  let rs = List.map run parts in
  (List.map fst rs, sum (List.map snd rs))

let sum_cycles systems = isum System.now systems

let traced_compute o name kind sz =
  let pseeds = part_seeds o.seed sz.parts in
  let setup, created = setup_once kind sz ~pseed:(List.hd pseeds) ~lint:true in
  let parts = List.map (make_cpart kind sz) pseeds in
  let interp, interp_wall =
    span "ref.base_interp" (fun () ->
        pass parts (fun cp ->
            compute_run
              ~config:(base_config ~pseed:cp.c_pseed ~with_net:false Config.Interp)
              cp.c_program))
  in
  List.iter2
    (fun s cp ->
      if System.now s <> cp.c_base_cycles || System.output s 0 <> cp.c_base_output
      then fail "%s: Interp and Blocks Base runs differ" name)
    interp parts;
  let run ?slice ?(config = fun cp -> cp.c_config) cp =
    compute_run ?slice ?fault:cp.c_fault ~config:(config cp) cp.c_program
  in
  let (plain, wall), gc = untraced (fun () -> pass parts run) in
  fresh_heap ();
  let (systems, _), traced_wall =
    timed "run" (fun () -> pass parts (run ~slice:sz.slice))
  in
  List.iter2
    (fun cp (sys, p) ->
      ignore (check_part name kind cp sys);
      if System.now sys <> System.now p || System.output sys 0 <> System.output p 0 then
        fail "%s: the sliced run differs from the unsliced run" name)
    parts (List.combine systems plain);
  let speedup =
    match kind with
    | Lockstep engine ->
        let other =
          if engine = Config.Sequential then Config.Parallel else Config.Sequential
        in
        let others, owall =
          span "ref.other_engine" (fun () ->
              pass parts
                (run ~config:(fun cp -> { cp.c_config with Config.engine = other })))
        in
        List.iter2
          (fun a b ->
            if System.now a <> System.now b || System.output a 0 <> System.output b 0
            then fail "%s: Sequential and Parallel engines differ" name)
          others systems;
        if engine = Config.Sequential then wall /. owall else owall /. wall
    | _ -> 0.0
  in
  let traced_on, ton_wall =
    span "ref.trace_on" (fun () ->
        pass parts (run ~config:(fun cp -> { cp.c_config with Config.trace = trace_ring })))
  in
  if sum_cycles traced_on <> sum_cycles systems then
    fail "%s: tracing changed the simulated cycles" name;
  let probe = List.hd systems in
  let _, report_s =
    timed "obs.report_json" (fun () ->
        ignore (Rcoe_util.Table.render (Metrics.to_table (System.metrics probe))))
  in
  let _, export_s =
    timed "obs.export" (fun () ->
        ignore (Rcoe_obs.Export.to_chrome_json (System.trace (List.hd traced_on))))
  in
  let base_blocks_wall = sum (List.map (fun cp -> cp.c_base_wall) parts) in
  put_layers
    {
      l_setup = setup;
      l_absint_us = gauge created "absint_host_us";
      l_base_interp = (sum_cycles interp, interp_wall);
      l_base_blocks = (isum (fun cp -> cp.c_base_cycles) parts, base_blocks_wall);
      l_wall = wall;
      l_traced_wall = traced_wall;
      l_nreplicas = (System.config probe).Config.nreplicas;
      l_speedup = speedup;
      (* Dropped trace events belong to the runs that traced. *)
      l_pooled =
        ("trace.dropped_events", List.assoc "trace.dropped_events" (pool traced_on))
        :: List.remove_assoc "trace.dropped_events" (pool systems);
      l_probe = probe;
      l_pipeline_s = (if kind = Replay_md5 then wall -. base_blocks_wall else 0.0);
      l_loadgen = [];
      l_attr = [];
      l_report_s = report_s;
      l_export_s = export_s;
      l_trace_on_ratio = ton_wall /. wall;
      l_gc = gc;
    };
  sz.parts

(* Reqtrace attribution over every part; the classes must sum to the
   end-to-end latency total. *)
let serve_attr results =
  let attrs = List.map (fun r -> Reqtrace.attribution r.Loadgen.rt) results in
  let total k = isum (List.assoc k) attrs in
  let parts = isum total attr_classes in
  let e2e = isum (fun r -> Hdr.sum (Reqtrace.e2e r.Loadgen.rt)) results in
  if parts <> total "total_cycles" || parts <> e2e then
    fail "serve-ycsb: attribution sums to %d, end-to-end total is %d" parts e2e;
  List.map (fun k -> (k, total k)) attr_classes

let traced_serve o sz =
  let pseeds = part_seeds o.seed sz.parts in
  let setup, created = setup_once Serve sz ~pseed:(List.hd pseeds) ~lint:true in
  let base name backend =
    span name (fun () -> pass pseeds (fun p -> serve_base sz p backend))
  in
  let refs, base_blocks_wall = base "ref.base_blocks" Config.Blocks in
  let interp, base_interp_wall = base "ref.base_interp" Config.Interp in
  List.iter2
    (fun (a : Loadgen.result) (b : Loadgen.result) ->
      if a.Loadgen.outcome_sorted_digest <> b.Loadgen.outcome_sorted_digest then
        fail "serve-ycsb: Interp and Blocks Base runs differ")
    interp refs;
  let run () =
    pass pseeds (fun pseed -> serve ~config:(config_of Serve ~pseed) sz ~pseed ~fault:true)
  in
  let (plain, wall), gc = untraced run in
  fresh_heap ();
  let (results, _), traced_wall = timed "run" run in
  let failed = List.fold_left2 (fun a r reference -> a + check_serve sz r ~reference) 0 results refs in
  List.iter2
    (fun (a : Loadgen.result) (b : Loadgen.result) ->
      if System.now a.Loadgen.sys <> System.now b.Loadgen.sys then
        fail "serve-ycsb: repeated runs differ in cycles")
    plain results;
  List.iter (fun r -> span "drain" (fun () -> System.replay_drain r.Loadgen.sys)) results;
  let systems = List.map (fun r -> r.Loadgen.sys) results in
  let r0 = List.hd results in
  let _, report_s =
    timed "obs.report_json" (fun () ->
        ignore (Json.to_string (Loadgen.report_json r0 ~engine:"sequential")))
  in
  let _, export_s =
    timed "obs.export" (fun () ->
        ignore
          (Rcoe_obs.Export.to_chrome_json ~extra:(Reqtrace.chrome_events r0.Loadgen.rt)
             (System.trace r0.Loadgen.sys)))
  in
  let lg f = isum f results in
  let cycles rs = sum_cycles (List.map (fun r -> r.Loadgen.sys) rs) in
  put_layers
    {
      l_setup = setup;
      l_absint_us = gauge created "absint_host_us";
      l_base_interp = (cycles interp, base_interp_wall);
      l_base_blocks = (cycles refs, base_blocks_wall);
      l_wall = wall;
      l_traced_wall = traced_wall;
      l_nreplicas = (System.config r0.Loadgen.sys).Config.nreplicas;
      l_speedup = 0.0;
      l_pooled = pool systems;
      l_probe = r0.Loadgen.sys;
      l_pipeline_s = 0.0;
      l_loadgen =
        [ ("issued", lg (fun r -> r.Loadgen.issued));
          ("completed", lg (fun r -> r.Loadgen.completed));
          ("retransmits", lg (fun r -> r.Loadgen.retransmits));
          ("dup_responses", lg (fun r -> r.Loadgen.dup_responses));
          ("redelivered", lg (fun r -> r.Loadgen.redelivered)) ];
      l_attr = serve_attr results;
      l_report_s = report_s;
      l_export_s = export_s;
      (* The serve loop always records a trace ring: "trace on" is the
         run itself. *)
      l_trace_on_ratio = 1.0;
      l_gc = gc;
    };
  (lg (fun r -> r.Loadgen.issued), failed)

let write_spans o path =
  let all = List.rev !spans in
  let self = self_times all in
  let t0 = match all with s :: _ -> s.sp_start | [] -> 0.0 in
  let one s =
    Printf.sprintf
      "{\"id\": %d, \"name\": %S, \"parent\": %d, \"workload\": %S, \
       \"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}"
      s.sp_id s.sp_name s.sp_parent o.workload (s.sp_start -. t0)
      (s.sp_stop -. t0) (self s)
  in
  (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
  let oc = open_out path in
  output_string oc
    (Printf.sprintf "{\"workload\": %S, \"seed\": %d, \"spans\": [\n  %s\n]}\n"
       o.workload o.seed (String.concat ",\n  " (List.map one all)));
  close_out oc;
  (* Self time per span name, largest first. *)
  let names = List.sort_uniq compare (List.map (fun s -> s.sp_name) all) in
  let rows =
    List.map
      (fun n ->
        let mine = List.filter (fun s -> s.sp_name = n) all in
        ( n,
          List.length mine,
          sum (List.map (fun s -> s.sp_stop -. s.sp_start) mine),
          sum (List.map self mine) ))
      names
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  in
  Printf.printf "%-20s %6s %12s %12s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (n, c, t, s) -> Printf.printf "%-20s %6d %12.6f %12.6f\n" n c t s)
    rows;
  Printf.printf "spans written to %s\n" path

let () =
  let o = parse_args () in
  let kind =
    match List.assoc_opt o.workload workloads with
    | Some k -> k
    | None ->
        prerr_endline
          ("bench: unknown workload '" ^ o.workload ^ "' (one of "
          ^ String.concat ", " (List.map fst workloads)
          ^ ")");
        exit 2
  in
  let sz = sizes kind ~short:o.short in
  let attempted, failed =
    if o.trace then begin
      recording := true;
      let r =
        match kind with
        | Serve -> traced_serve o sz
        | _ ->
            let n = traced_compute o o.workload kind sz in
            (n, if !failures = [] then 0 else n)
      in
      recording := false;
      write_spans o (Printf.sprintf "perfbench/_out/spans-%s-%d.json" o.workload o.seed);
      r
    end
    else
      match kind with
      | Serve -> timed_serve o sz
      | _ -> timed_compute o o.workload kind sz
  in
  print_result ~attempted ~failed;
  exit (if !failures = [] then 0 else 1)
