type mode = Base | LC | CC

type sync_level = Sync_none | Sync_args | Sync_vote

type engine = Sequential | Parallel

type checkpoint_mode = Full | Incremental

type exec_backend = Interp | Blocks

type detection = Lockstep | Replay

type t = {
  engine : engine;
  mode : mode;
  nreplicas : int;
  arch : Rcoe_machine.Arch.t;
  sync_level : sync_level;
  vm : bool;
  tick_interval : int;
  barrier_timeout : int;
  user_words : int;
  seed : int;
  exception_barriers : bool;
  masking : bool;
  timeout_masking : bool;
  fast_catchup : bool;
  trace_output : bool;
  with_net : bool;
  ingress_check : bool;
  strict_lint : bool;
  trace : Rcoe_obs.Trace.config option;
  checkpoint_every : int;
  checkpoint_depth : int;
  checkpoint_mode : checkpoint_mode;
  max_rollbacks : int;
  exec_backend : exec_backend;
  detection : detection;
  replay_chunk_ticks : int;
  replay_queue_depth : int;
  replay_checkers : int;
}

let default =
  {
    engine = Sequential;
    mode = Base;
    nreplicas = 1;
    arch = Rcoe_machine.Arch.X86;
    sync_level = Sync_args;
    vm = false;
    tick_interval = 50_000;
    barrier_timeout = 400_000;
    user_words = 192 * 1024;
    seed = 1;
    exception_barriers = false;
    masking = false;
    timeout_masking = false;
    fast_catchup = false;
    trace_output = true;
    with_net = false;
    ingress_check = false;
    strict_lint = false;
    trace = None;
    checkpoint_every = 0;
    checkpoint_depth = 2;
    checkpoint_mode = Incremental;
    max_rollbacks = 3;
    exec_backend = Interp;
    detection = Lockstep;
    replay_chunk_ticks = 1;
    replay_queue_depth = 4;
    replay_checkers = 2;
  }

let mode_to_string = function Base -> "Base" | LC -> "LC" | CC -> "CC"

let engine_to_string = function
  | Sequential -> "sequential"
  | Parallel -> "parallel"

let checkpoint_mode_to_string = function
  | Full -> "full"
  | Incremental -> "incremental"

let exec_backend_to_string = function Interp -> "interp" | Blocks -> "blocks"

(* Lint-style eligibility check for the domain-parallel engine. The
   parallel engine runs replicas concurrently only between sync points,
   so any feature that couples partitions *within* a round, at cycle
   granularity, keeps the configuration sequential. Returns the reason
   the configuration cannot run in parallel, or [None] if it can.

   [net_ok] is the footprint analyzer's per-workload verdict (see
   [Eligibility]): a networked configuration is only admitted when the
   caller proved that the program reaches device state exclusively
   through the kernel-serialised syscall paths. Config alone cannot know
   that — it never sees the program — so the default stays the blanket
   rejection. *)
let parallel_ineligibility ?(net_ok = false) t =
  if t.with_net && not net_ok then
    Some
      "with_net: device DMA and IRQ delivery touch shared machine state \
       every cycle, so replica cycles cannot be re-ordered across a window \
       unless the workload's memory footprint proves all device-ring \
       accesses are kernel-serialised (run `rcoe_run lint` for the \
       per-workload verdict)"
  else if t.mode <> Base && not t.exception_barriers then
    Some
      "exception_barriers=false under replication: an uncontrolled kernel \
       abort halts the whole system mid-round, which a concurrently \
       running sibling replica would observe too late (enable \
       exception_barriers to confine aborts to the faulting replica)"
  else None

let ckpt_quiesce_cycles = 2_000

(* The cycles each tick of a replay chunk spends entering the kernel:
   the timer interrupt, plus a VM exit under [vm]. *)
let replay_tick_cost t =
  let p = Rcoe_machine.Arch.profile_of t.arch in
  p.irq_cost + if t.vm then p.vm_exit_cost else 0

let sync_level_to_string = function
  | Sync_none -> "N"
  | Sync_args -> "A"
  | Sync_vote -> "S"

let validate ?net_ok t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.mode = Base && t.nreplicas <> 1 then
    err "Base mode requires exactly 1 replica (got %d)" t.nreplicas
  else if t.mode <> Base && t.nreplicas < 2 then
    err "%s mode requires at least 2 replicas" (mode_to_string t.mode)
  else if t.masking && t.nreplicas < 3 then
    err "error masking requires TMR (at least 3 replicas)"
  else if t.vm && not (Rcoe_machine.Arch.profile_of t.arch).vm_support then
    err "virtual machines are not supported on the %s platform"
      (Rcoe_machine.Arch.to_string t.arch)
  else if t.vm && t.mode = LC then
    err "LC-RCoE cannot support virtual machines (data races in guests)"
  else if
    t.masking && t.mode = CC
    && not (Rcoe_machine.Arch.profile_of t.arch).pt_spare_bit
  then
    err "CC error masking is unsupported on %s (no spare PTE bit)"
      (Rcoe_machine.Arch.to_string t.arch)
  else if t.timeout_masking && not t.masking then
    err "timeout_masking requires masking"
  else if t.tick_interval <= 0 then err "tick_interval must be positive"
  else if (match t.trace with Some { Rcoe_obs.Trace.capacity } -> capacity <= 0 | None -> false)
  then err "trace capacity must be positive"
  else if t.barrier_timeout <= t.tick_interval / 10 then
    err "barrier_timeout too small relative to tick_interval"
  else if t.checkpoint_every < 0 then err "checkpoint_every must be >= 0"
  else if t.checkpoint_every > 0 && t.mode = Base then
    err "checkpointing requires a replicated mode (LC or CC)"
  else if t.checkpoint_every > 0 && t.checkpoint_depth < 1 then
    err "checkpoint_depth must be >= 1"
  else if t.checkpoint_every > 0 && t.max_rollbacks < 1 then
    err "max_rollbacks must be >= 1"
  else if t.detection = Replay && t.mode <> Base then
    err
      "replay detection runs an unreplicated primary (mode Base); %s \
       lockstep replication already detects at every sync point"
      (mode_to_string t.mode)
  else if t.detection = Replay && t.engine = Parallel then
    err
      "replay detection owns the checker domains itself; the primary \
       runs on the sequential engine"
  else if t.detection = Replay && t.checkpoint_every > 0 then
    err
      "replay detection cuts its own per-chunk checkpoints; \
       checkpoint_every must be 0"
  else if t.detection = Replay && t.checkpoint_mode = Full then
    err
      "replay detection prices each chunk cut as a delta checkpoint; \
       checkpoint_mode must be Incremental"
  else if t.detection = Replay && t.replay_chunk_ticks < 1 then
    err "replay_chunk_ticks must be >= 1"
  else if
    t.detection = Replay
    && t.replay_chunk_ticks * t.tick_interval
       <= ckpt_quiesce_cycles + (t.replay_chunk_ticks * replay_tick_cost t)
  then
    (* Its cut's quiesce and its ticks' kernel entries fill the chunk:
       the run would cut chunk after chunk and never finish. *)
    let per_tick = replay_tick_cost t in
    let fixed = ckpt_quiesce_cycles + (t.replay_chunk_ticks * per_tick) in
    err
      "a replay chunk of %d cycles (%d ticks x %d) is no longer than its \
       fixed costs of %d cycles (the cut's %d-cycle quiesce + %d per tick \
       for the interrupt%s), so the primary would never run"
      (t.replay_chunk_ticks * t.tick_interval)
      t.replay_chunk_ticks t.tick_interval fixed ckpt_quiesce_cycles per_tick
      (if t.vm then " and the VM exit" else "")
  else if t.detection = Replay && t.replay_queue_depth < 1 then
    err "replay_queue_depth must be >= 1"
  else if t.detection = Replay && t.replay_checkers < 1 then
    err "replay_checkers must be >= 1"
  else if t.detection = Replay && t.max_rollbacks < 1 then
    err "max_rollbacks must be >= 1"
  else
    match t.engine with
    | Sequential -> Ok ()
    | Parallel -> (
        match parallel_ineligibility ?net_ok t with
        | None -> Ok ()
        | Some reason -> err "parallel engine ineligible: %s" reason)

let replicas_label t =
  match (t.mode, t.nreplicas) with
  | Base, _ -> "Base"
  | LC, 2 -> "LC-D"
  | LC, 3 -> "LC-T"
  | CC, 2 -> "CC-D"
  | CC, 3 -> "CC-T"
  | m, n -> Printf.sprintf "%s-%d" (mode_to_string m) n
