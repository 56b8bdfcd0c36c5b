(* Public facade over the replication scheduler and its execution
   engines. All state and semantics live in [Sched]; [create] adds the
   replay pipeline when detection is [Replay], and [run] dispatches on
   the configured detection mode, then engine. Replay detection owns its
   own loop ([Engine_replay]: sequential stepping plus chunk cuts and
   checker domains), so it pre-empts the engine dispatch — [validate]
   already pins [engine = Sequential] for it. *)

include Sched

let create ~config ~program =
  let t = Sched.create ~config ~program in
  if config.Config.detection = Config.Replay then Engine_replay.setup t;
  t

let run ?stop t ~max_cycles =
  if (config t).Config.detection = Config.Replay then
    Engine_replay.run ?stop t ~max_cycles
  else
    match (config t).Config.engine with
    | Config.Sequential -> Engine_seq.run ?stop t ~max_cycles
    | Config.Parallel -> Engine_par.run ?stop t ~max_cycles

let replay_drain t =
  if (config t).Config.detection = Config.Replay then Engine_replay.drain t
