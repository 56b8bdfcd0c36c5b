(** Deterministic pseudo-random number generator (SplitMix64).

    All randomness in the simulator flows through explicitly-seeded [Rng.t]
    values so that every experiment is reproducible bit-for-bit from its
    seed, as the paper does when it "ensures the same sequence of
    pseudo-random numbers for all configurations".

    The 64-bit state is kept unboxed, so {!below} allocates nothing, and
    alone in its cache line, so generators drawn on different domains do
    not contend for one. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each subsystem (core jitter, fault injector, workload)
    its own stream so adding draws to one does not perturb the others. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val assign : dst:t -> src:t -> unit
(** [assign ~dst ~src] overwrites [dst]'s state with [src]'s, giving
    [dst] the same future stream in place — what a replay checker uses
    to rewind a core's embedded jitter stream to a chunk boundary. *)

val next : t -> int
(** [next t] is a uniform 62-bit non-negative integer. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Raises [Invalid_argument]
    if [bound <= 0]. *)

val bool : t -> bool

val threshold : float -> int
(** [threshold p] is [ceil (p * 2^53)], clamped to \[0, 2^53\]: the
    argument of {!below} for probability [p]. A [p] that is not positive
    (or NaN) gives 0, and [p >= 1] gives 2^53. *)

val below : t -> int -> bool
(** [below t thr] draws one step and is true when the step's top 53
    bits, as an integer, are below [thr]. With [thr = threshold p] it is
    true with probability [p], and it equals the float comparison
    [float_of (bits64 t lsr 11) /. 2^53 < p] draw for draw: dividing a
    53-bit integer by 2^53 is exact, and an integer is below a real
    number exactly when it is below its ceiling. Allocates nothing. *)

val bits64 : t -> int64
(** Raw 64-bit output of the underlying SplitMix64 step. *)
