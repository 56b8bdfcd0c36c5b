(* Public facade over the replication scheduler and its run loop. All
   state and semantics live in [Sched]; [create] adds the replay
   pipeline when detection is [Replay], and [run] picks how [Window.run]
   steps the system: with chunk cuts under replay detection
   ([Engine_replay]), with window jobs on worker domains for a
   replicated run on [Parallel] ([Engine_par]), and otherwise with the
   inline jobs of [Window.inline_jobs], if it offers any. Unreplicated
   runs open no windows on either engine. *)

include Sched

let create_result ~config ~program =
  match Sched.create_result ~config ~program with
  | Ok t ->
      if config.Config.detection = Config.Replay then Engine_replay.setup t;
      Ok t
  | Error msg -> Error msg

let create ~config ~program =
  match create_result ~config ~program with
  | Ok t -> t
  | Error msg -> invalid_arg ("System.create: " ^ msg)

let run ?stop t ~max_cycles =
  let cfg = config t in
  if cfg.Config.detection = Config.Replay then
    Engine_replay.run ?stop t ~max_cycles
  else if cfg.Config.mode <> Config.Base && cfg.Config.engine = Config.Parallel
  then Engine_par.run ?stop t ~max_cycles
  else Window.run ?jobs:(Window.inline_jobs t) ?stop t ~max_cycles

let replay_drain t =
  if (config t).Config.detection = Config.Replay then Engine_replay.drain t
