(** The run loop: the only code in the library that steps simulated
    cycles. Each step moves every replica through [Sched.advance], the
    one replica step: an execution window of [jobs], else on [Blocks] a
    quiet-cycle skip, else one classic cycle (the per-cycle reference on
    [Interp]). Every fast step is bit-identical to the classic cycles it
    replaces. *)

val run :
  ?before:(Sched.t -> unit) ->
  ?jobs:(s:int -> cap:int -> unit) ->
  ?stop:(Sched.t -> bool) ->
  Sched.t ->
  max_cycles:int ->
  unit
(** [run t ~max_cycles] steps [t] until it halts, finishes, or has run
    [max_cycles] cycles; it never overshoots that budget. [before] runs
    at the top of every iteration (replay detection cuts its chunks
    there), and the iteration's step is skipped when it left the system
    halted or finished. [jobs ~s ~cap] must run {!job} for every replica
    the window over cycles [s+1 .. cap] gave a context, and return once
    all of them have. [stop] is polled every 128 cycles. *)

val inline_jobs : Sched.t -> (s:int -> cap:int -> unit) option
(** The jobs of a [Sequential] run, run on the calling domain in rid
    order, or [None] when the run takes no windows: an unreplicated run,
    an [Interp] run, or a configuration the parallel engine would
    refuse. *)

val job : Sched.t -> Sched.replica -> Sched.wctx -> s:int -> cap:int -> unit
(** Advance one replica from cycle [s] towards [cap] under its window
    context, until it parks or reaches [cap]. Touches only the replica's
    private state, so the jobs of one window may run concurrently, one
    per domain ([Engine_par]). *)
