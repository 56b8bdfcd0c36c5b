(** Shared memory bus with bounded bandwidth.

    Cores acquire one credit per word transferred; credits refill at
    [rate] per global cycle up to a small burst allowance. A core that
    cannot acquire a credit stalls for that cycle and retries — this is
    what makes replicas of a memory-bound program contend, reproducing the
    Table V result that DMR/TMR divide the observable memory bandwidth on
    a machine whose single core can already saturate the bus. *)

type t

val create : rate:float -> t
(** [rate] is in word-transfers per cycle. Burst allowance is fixed at
    4 credits. *)

val tick : t -> unit
(** Advance one global cycle (refill credits). Neither [tick] nor
    {!try_acquire} allocates. A lane ticks once per simulated cycle,
    whatever its core does: [Kernel.step] and {!Blockc.run} tick it for
    the cycles they step, [Sched.advance] for the others. *)

val advance : t -> cycles:int -> unit
(** [advance t ~cycles] leaves the credit bit-identical to [cycles]
    applications of {!tick}. It ticks until the lane is full, which it
    then stays, so its cost is bounded by the refill time, not by
    [cycles]; the refill is a running floating-point sum, which a
    closed form would round differently. *)

val try_acquire : t -> int -> bool
(** [try_acquire t n] takes [n] credits if available. *)

val rate : t -> float

type state
(** The lane's mutable state at a point in time: its credit. *)

val state : t -> state
(** Capture the lane's credit. Replay images save it at a chunk cut:
    credit refill is floating-point and path-dependent, so a shadow
    machine must restart from the exact saved value to stay
    cycle-identical with the primary. *)

val set_state : t -> state -> unit
(** Restore a previously captured state. *)
