(** Order-sensitive Fletcher checksums.

    The paper reduces kernel state updates, driver-contributed data and
    system-call parameters to a small signature using a Fletcher checksum,
    chosen because it "is dependent on the values forming the checksum as
    well as the order in which they are applied" (Section III-C). The
    replication engine accumulates one of these per replica and compares
    them when voting.

    The accumulator ingests machine words; [value] exposes the running
    checksum as two words (sum and order-sensitive sum-of-sums), which
    together with the event count form the paper's three-word signature. *)

type t

val create : unit -> t

val reset : t -> unit

val add_word : t -> int -> unit
(** Feed one machine word (folded to 32 bits before accumulation). *)

val add_words : t -> int array -> unit

val block_sums : int array -> pos:int -> len:int -> int * int
(** The sums of words [\[pos, pos + len)]: the [value] a fresh
    accumulator reaches by adding them. Raises [Invalid_argument] if
    the range leaves the array. *)

val add_block : t -> len:int -> int * int -> unit
(** [add_block t ~len (block_sums ws ~pos ~len)] leaves [t] exactly as
    adding those [len] words one by one would, in O(1): a digest over
    many blocks composes from sums kept per block. Raises
    [Invalid_argument] unless [0 <= len <= 2^24]. *)

val add_string : t -> string -> unit
(** Feed a byte string (packed little-endian into words). *)

val value : t -> int * int
(** [(c0, c1)]: the two running sums, each in \[0, 2^32). *)

val digest : t -> int
(** A single 64-bit-word rendering of [value]: [c1 lsl 32 lor c0]. *)

val equal : t -> t -> bool

val copy : t -> t

val fletcher32 : string -> int
(** One-shot classical Fletcher-32 of a byte string (16-bit blocks,
    modulo 65535); used by tests as an independent reference. *)

val frame : int array -> int
(** One-shot per-frame checksum over machine words (each word reduced
    mod 65535 before the classical Fletcher recurrence; result packed as
    [c1 * 65536 + c0]). Used as the NIC's wire-side ground truth for the
    ingress-verification path: it is computable with only add/rem
    operations, so the kvstore guest driver mirrors it exactly and the
    {!Rcoe_isa.Absint} interval domain can bound the accumulators. *)
