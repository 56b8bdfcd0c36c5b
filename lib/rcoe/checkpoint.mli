(** Verified checkpoints for rollback recovery.

    A checkpoint is a consistent cut of the whole replicated state,
    taken right after a successful signature vote — the only moments
    the replicas are provably equivalent. Each snapshot holds every
    live replica's memory partition and kernel/core bookkeeping
    (via {!Rcoe_kernel.Kernel.snapshot}), the shared framework region,
    the DMA window, and the engine's logical clocks, so the engine can
    later rewind all of it at once and re-execute.

    {b One image form.} Every snapshot is one complete, immutable image
    of its cut. A region is held as its pages of at most
    {!Rcoe_machine.Mem.page_size} words, in fixed chunks of 32 pages;
    neither is written once captured, so images share them. A capture
    against a base — the image memory was last synced to, so every page
    clean in {!Rcoe_machine.Mem}'s write tracking still holds its words —
    copies the chunk array, the chunks it writes into and the dirty
    pages, and shares every other page with the base: O(dirty pages).
    Without a base it copies every page that holds a non-zero word. The
    capture's [kind] only sets its cost basis in the simulated machine:
    every word for [Full], the dirty pages' words for [Delta].

    A restore against the synced image writes only the pages dirtied
    since the sync or held as a different page by the two images. Each
    page carries its Fletcher block sums, computed once on first use, so
    the digest of an image, or of live memory against its synced image
    ({!add_sums}), costs O(pages) plus the dirty pages' words.

    Lockstep snapshots live in a bounded ring, newest first. Keeping
    more than one matters: a fault injected *after* a vote but *before*
    the next capture is frozen into the newest snapshot, and recovery
    must be able to escalate to an older, still-clean one (see
    [Sched.try_rollback]). Pushing past the depth drops the oldest
    image; the others stay valid, and so does any handle to it. Replay
    detection keeps no ring: each chunk starts from an image that
    checker domains read while the primary runs on.

    The engine above owns policy (when to capture, which image memory is
    synced to, retry budgets, costs); this module owns the data.
    Device-internal state (e.g. the network device's queues) is outside
    the sphere of replication and is deliberately not captured —
    recovery campaigns use compute workloads.

    Capture and restore read and write every replica's partition (and
    the dirty bitmap) directly, so they must only run while replica
    execution is quiescent. Both engines guarantee this: the sequential
    engine is single-domain, and the parallel engine ({!Config.engine})
    parks all worker domains at a barrier before any round logic —
    including checkpoint capture and rollback restore — executes on the
    orchestrating domain. *)

type region
(** A captured region's pages. *)

val empty_region : region
(** A region of no words. *)

type kind =
  | Full  (** Priced at every word of the cut. *)
  | Delta  (** Priced at the words of the pages dirty at capture. *)

type replica_image = {
  i_rid : int;
  i_partition : region;
  i_kernel : Rcoe_kernel.Kernel.snapshot;
  i_finished : bool;
}

type snap = {
  s_cycle : int;  (** Capture cycle (rollback target, for reporting). *)
  s_round_seq : int;
  s_ticks : int;
  s_prim : int;
  s_shared : region;
  s_dma : region;
  s_replicas : replica_image list;  (** Live replicas at capture. *)
  s_words : int;
      (** Words the capture copies in the simulated machine (cost
          basis), by its [kind]. *)
  s_skipped_words : int;  (** The cut's other words. *)
}

type t

val create : depth:int -> t
(** Raises [Invalid_argument] if [depth < 1]. *)

val depth : t -> int
val count : t -> int
(** Snapshots currently held (<= depth). *)

val taken : t -> int
(** Snapshots stored over the ring's lifetime. *)

val push : t -> snap -> unit
(** Store as newest, dropping the oldest when the ring is full. Raises
    [Invalid_argument] on a [Delta] captured without a base. *)

val newest : t -> snap option

val drop_newest : t -> unit
(** Recovery escalation: discard a snapshot that keeps failing. *)

val words : snap -> int
(** Words copied at capture, the cost basis. *)

val skipped_words : snap -> int

val total_words : snap -> int
(** Full size of the captured cut ([words + skipped]); what a restore
    writes back in the simulated machine. *)

val capture :
  ?clear_dirty:bool ->
  ?base:snap ->
  Rcoe_machine.Mem.t ->
  Rcoe_kernel.Layout.t ->
  kind:kind ->
  cycle:int ->
  round_seq:int ->
  ticks:int ->
  prim:int ->
  replicas:(int * Rcoe_kernel.Kernel.t * bool) list ->
  snap
(** Snapshot the given [(rid, kernel, finished)] replicas plus the
    shared and DMA regions. Call only at a verified quiescent point.
    Against [base], the image memory was last synced to, each region
    [base] holds shares its clean pages and copies the dirty ones; a
    region it lacks (a replica reintegrated since) is copied whole.
    Without [base], a [Full] capture copies every page that holds a
    non-zero word, and a [Delta] capture only the dirty pages: an
    incomplete image that {!push}, the restores and {!add_sums} refuse,
    useful only to time a dirty-page copy.
    Clears the dirty flags afterwards unless [clear_dirty:false]
    (which lets a differential harness capture the same cut twice). *)

val restore_image :
  ?synced:snap -> Rcoe_machine.Mem.t -> Rcoe_kernel.Layout.t -> snap -> unit
(** Write every captured partition, the shared region and the DMA
    window back. With [synced], the image memory was last synced to, a
    page that is clean in the write tracking and the same page in both
    images already holds its words and is not written: the restore is
    O(pages) plus the words of the pages that differ. The caller pairs
    this with {!Rcoe_kernel.Kernel.restore} on each image, resetting its
    own engine state, and — to sync memory to [snap] —
    {!Rcoe_machine.Mem.clear_dirty}. Raises [Invalid_argument] on an
    incomplete image, before writing anything. *)

val restore_memory :
  Rcoe_machine.Mem.t -> Rcoe_kernel.Layout.t -> t -> snap -> unit
(** [restore_memory mem lay _ snap] is [restore_image mem lay snap]:
    every page written. The ring argument is unused. *)

val add_sums :
  ?mem:Rcoe_machine.Mem.t -> base:int -> Rcoe_checksum.Fletcher.t -> region -> unit
(** [add_sums ~base f region] feeds the words of a region, which sits at
    [base] in memory, to a Fletcher accumulator by its pages' block
    sums: the same state as {!Rcoe_checksum.Fletcher.add_words} of the
    words, in O(pages) once each page's sums are known. With [mem] it
    feeds the words [mem] holds there instead, [region] being the
    region's pages in the image memory was last synced to: a page dirty
    in the write tracking is summed in place, a clean one contributes
    [region]'s page sums. Raises [Invalid_argument] on a region of an
    incomplete image. *)

val partition_words : snap -> rid:int -> int array
(** The partition image of replica [rid] in [snap] (fresh array).
    Raises [Invalid_argument] if [snap] holds no such replica or is
    incomplete. *)
