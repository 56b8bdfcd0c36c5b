(** Memory footprints: per-instruction read/write address ranges.

    Derived from {!Absint} facts: every reachable data access becomes
    an {!access} whose range over-approximates the word addresses it
    may touch. Accesses at unreachable instructions (or with a [Bot]
    pre-state — e.g. a configuration-pruned path) are omitted.

    Classification is against caller-supplied {!region}s: this module
    is layout-agnostic so the ISA layer stays independent of the
    kernel's address-space map; the RCoE layer builds the region table
    from [Rcoe_kernel.Layout] and decides which classes are device-owned
    (see [Eligibility]). *)

type kind = Read | Write

type access = {
  a_addr : int;  (** Instruction address (provenance). *)
  a_kind : kind;
  a_what : string;  (** Human label: "store", "rep-movs source", ... *)
  a_range : Absint.ival;  (** Abstract address range of the access. *)
}

type region = {
  rg_name : string;
  rg_lo : int;  (** First word address (inclusive). *)
  rg_hi : int;  (** Last word address (inclusive). *)
}

type violation = { v_access : access; v_region : region }

val of_result : Absint.result -> access list
(** All reachable data accesses, sorted by instruction address. *)

val classify : regions:region list -> access -> region list
(** The regions an access may overlap. *)

val violations : forbidden:region list -> access list -> violation list
(** Accesses that may overlap a forbidden region, in access order. *)

val kind_to_string : kind -> string
val range_to_string : Absint.ival -> string

val access_to_string : access -> string
(** e.g. ["store at 500 may write \[0x70000,0x70040\]"]. *)

val violation_to_string : violation -> string
(** e.g. ["store at 500 may write dma-rx-ring \[0x70000,0x707ff\]"]. *)
