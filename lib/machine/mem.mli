(** Physical memory.

    One flat, word-addressed array shared by all replicas, like the real
    machine: the kernel partitions it between replicas and a small shared
    region, and fault injection flips bits anywhere in it. Out-of-range
    accesses raise {!Abort}, which the core/kernel turn into a (kernel)
    data abort — this is how a corrupted page-table entry whose frame
    number decodes to garbage manifests, as in the paper's Table VII
    "kernel exceptions" row.

    {b Write tracking.} Memory also keeps one dirty flag per
    {!page_size}-word physical page, set by every mutating operation
    ([write], [write_block], [blit], [fill] and, through [write],
    [flip_bit]). The checkpoint layer reads the flags with
    {!snapshot_dirty} at quiescent points to copy only the pages written
    since the previous image, and resets them with
    {!clear_dirty} — the software analogue of the paging-hardware
    dirty bit the paper's platforms expose. Reads never touch the
    flags. Under the parallel engine each worker domain writes only its
    own (page-aligned) partition, so distinct domains touch distinct
    flag entries, and the flags are only read while the workers are
    parked at a barrier. *)

exception Abort of int
(** Physical address out of range. The payload is the {e first}
    out-of-range address of the offending access: for a block
    operation whose base is in range but whose end is not, that is the
    first word past the end of memory, not the base. *)

val page_shift : int
(** 8: dirty tracking works on 256-word pages (matches
    [Page_table.page_shift]; defined here because [Page_table] itself
    stores PTEs in a [Mem.t]). *)

val page_size : int

type t

val create : int -> t
(** [create size] is zeroed memory of [size] words, all pages clean. *)

val size : t -> int

val read : t -> int -> int
(** Raises {!Abort}. *)

val write : t -> int -> int -> unit
(** Raises {!Abort}. *)

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Word copy within physical memory; raises {!Abort} on any
    out-of-range word. *)

val read_block : t -> int -> int -> int array
val write_block : t -> int -> int array -> unit

val sums : t -> addr:int -> len:int -> int * int
(** {!Rcoe_checksum.Fletcher.block_sums} of the words at
    [\[addr, addr + len)], read in place. Raises {!Abort}. *)

val all_zero : t -> addr:int -> len:int -> bool
(** Do the words at [\[addr, addr + len)] all hold 0? Raises {!Abort}. *)

val flip_bit : t -> addr:int -> bit:int -> unit
(** Fault injection: XOR bit [bit] (0–61) of the word at [addr].
    Raises {!Abort} if out of range, [Invalid_argument] on a bad bit.
    Marks the page dirty (the flip is a real write and must survive a
    delta capture). *)

val fill : t -> addr:int -> len:int -> int -> unit

val page_is_dirty : t -> addr:int -> bool
(** Has the page containing physical address [addr] been written since
    the last {!clear_dirty}? *)

val snapshot_dirty : t -> addr:int -> len:int -> int list
(** Base addresses (ascending, page-aligned) of the dirty pages
    intersecting [[addr, addr+len)]. [len <= 0] is the empty list;
    otherwise the range must lie within memory ([Invalid_argument]).
    Does not clear the flags. *)

val clear_dirty : t -> unit
(** Mark every page clean. Call only from checkpoint capture/restore at
    a quiescent point: clearing concurrently with replica execution
    would lose writes from the next delta. *)
