(** Page tables stored in simulated physical memory.

    Each address space owns a flat array of page-table entries (one word
    per virtual page) living at [table.base] in physical memory. Keeping
    the entries *in* simulated memory is load-bearing: the fault-injection
    experiments flip bits in kernel memory, and a corrupted PTE must
    really cause a wrong translation, a protection fault, or a physical
    abort — as it does on the paper's hardware.

    PTE word layout:
    - bit 0: valid
    - bit 1: writable
    - bit 2: DMA buffer mark (the "unused page-table bit" x86 error
      masking uses to find DMA mappings when the primary is removed;
      the 32-bit Arm profile has no such spare bit, so masking is
      unsupported there — Section IV-A)
    - bit 3: device page (accesses are MMIO, not RAM)
    - bits 4-7: unused; {!decode} ignores them, so a fault that flips
      one leaves the translation unchanged
    - bits 8+: physical page number (or device page id) *)

type pte = {
  valid : bool;
  writable : bool;
  dma : bool;
  device : bool;
  ppn : int;
}

val invalid_pte : pte

val encode : pte -> int
val decode : int -> pte

val page_shift : int
(** 8: pages are 256 words (re-exported from {!Mem.page_shift}, the
    single source of truth — [Mem] owns it because it cannot depend on
    this module). *)

val page_size : int

type table = {
  base : int;  (** Physical address of the PTE array. *)
  npages : int;  (** Number of virtual pages covered. *)
}

val table_words : table -> int
(** Physical footprint of the table ([npages]). *)

val set : Mem.t -> table -> vpn:int -> pte -> unit
(** Raises [Invalid_argument] if [vpn] is out of the covered range. *)

val get : Mem.t -> table -> vpn:int -> pte

val clear : Mem.t -> table -> unit

type resolution =
  | Phys of int  (** RAM physical word address. *)
  | Device of int * int  (** Device page id, word offset within page. *)
  | No_mapping
  | Not_writable

val translate : Mem.t -> table -> vaddr:int -> write:bool -> resolution
(** Walk the table (reads simulated memory; can raise {!Mem.Abort} if
    the table base itself is corrupt). A garbage frame number is returned
    as-is in [Phys]; the subsequent physical access will abort, which the
    kernel reports as a kernel data abort. *)

val ram_addr : Mem.t -> table -> vaddr:int -> write:bool -> int
(** The RAM path of {!translate}, allocation-free: the same walk, with
    the entry's bits tested in place and no {!pte} or {!resolution}
    built. It is [p] when {!translate} is [Phys p] with [p >= 0], and
    negative otherwise — a device page, an unmapped or write-protected
    access, or a garbage frame whose address overflows; the caller then
    takes {!translate}. Every executed load and store goes through it. *)

val vpn_of : int -> int
val offset_of : int -> int
