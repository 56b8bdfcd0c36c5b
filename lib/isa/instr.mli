(** The simulated instruction set.

    A word-based RISC-like ISA with the specific features RCoE depends on:

    - conditional and unconditional branches (the unit of the precise
      logical clock),
    - an x86-style repeated string move [Rep_movs] that copies many words
      without executing branch instructions — the case that defeats naive
      breakpoint placement (paper Section III-D),
    - Arm-style exclusive load/store ([Ldex]/[Stex]) whose retry count can
      differ between replicas, and x86-style [Atomic_add]/[Cas] that cannot,
    - [Cntinc], the branch-counter increment inserted by the
      compiler-assisted pass (never written by hand),
    - [Syscall], the only way into the kernel.

    Instruction addresses are indices into the program's code array
    (Harvard layout: code is not addressable as data). *)

type target = Lbl of string | Abs of int
(** Branch targets: symbolic before assembly, absolute after. *)

type operand = Reg of Reg.t | Imm of int

type cond = Eq | Ne | Lt | Le | Gt | Ge

type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Asr

type falu = Fadd | Fsub | Fmul | Fdiv

type funop = Fmov | Fneg | Fabs | Fsqrt

type t =
  | Nop
  | Halt  (** Stop this hardware thread (used only by bare-metal stubs). *)
  | Mov of Reg.t * operand
  | La of Reg.t * string
      (** Load the address of a data label; becomes [Mov rd (Imm addr)]
          at assembly. *)
  | Alu of alu * Reg.t * Reg.t * operand  (** [rd <- rs op operand]. *)
  | Not of Reg.t * Reg.t
  | Ld of Reg.t * Reg.t * int  (** [rd <- mem\[rs + off\]]. *)
  | St of Reg.t * Reg.t * int  (** [mem\[rd + off\] <- rs]. *)
  | Push of Reg.t
  | Pop of Reg.t
  | B of cond * Reg.t * operand * target
      (** Branch if [rs cond operand]; counts as a branch. *)
  | Jmp of target
  | Jal of target  (** Call: [lr <- ip+1]; counts as a branch. *)
  | Jr of Reg.t  (** Indirect jump; counts as a branch. *)
  | Ret  (** [Jr lr]; counts as a branch. *)
  | Syscall of int
  | Rep_movs
      (** Copy [r2] words from [\[r1\]] to [\[r0\]]; advances [r0], [r1],
          clears [r2]. Executes without branch-counter increments. *)
  | Ldex of Reg.t * Reg.t  (** Exclusive load: [rd <- mem\[rs\]], arms monitor. *)
  | Stex of Reg.t * Reg.t * Reg.t
      (** [Stex (rres, rval, raddr)]: store if monitor still armed;
          [rres <- 0] on success, [1] on failure. *)
  | Atomic_add of Reg.t * Reg.t * operand
      (** x86 lock-xadd: [rd <- mem\[raddr\]]; [mem\[raddr\] += operand]. *)
  | Cas of Reg.t * Reg.t * Reg.t * Reg.t
      (** [Cas (rd, raddr, rexpect, rnew)]: [rd <- old]; store [rnew] if
          [old = rexpect]. *)
  | Cntinc  (** Compiler-inserted branch-counter increment (reserved r9). *)
  | Falu of falu * Reg.f * Reg.f * Reg.f
  | Funop of funop * Reg.f * Reg.f
  | Fldi of Reg.f * float
  | Fld of Reg.f * Reg.t * int
  | Fst of Reg.f * Reg.t * int
  | Fb of cond * Reg.f * Reg.f * target  (** Float compare-and-branch. *)
  | Itof of Reg.f * Reg.t
  | Ftoi of Reg.t * Reg.f

val is_branch : t -> bool
(** True for every instruction that increments the user branch counter:
    [B], [Jmp], [Jal], [Jr], [Ret], [Fb]. [Rep_movs] is deliberately not
    a branch even though it iterates. *)

val is_memory_access : t -> bool
(** True for instructions that touch data memory (bus-token consumers). *)

val target_of : t -> target option
(** The control-flow target, if any. *)

val with_target : t -> target -> t
(** Replace the target. Raises [Invalid_argument] if [target_of] is
    [None]. *)

val regs_used : t -> Reg.t list
(** Every integer register an instruction reads or writes, including the
    implicit [sp]/[lr] of [Push]/[Pop]/[Jal]/[Ret]. [Syscall] and
    [Cntinc] report none. *)

val defs : t -> Reg.t list
(** Integer registers an instruction may write (kill set for dataflow).
    Conservative where the ISA is underspecified: [Syscall] is assumed
    to clobber [r0] (the kernel return-value register), and [Cntinc]
    writes the reserved branch counter. *)

val uses : t -> Reg.t list
(** Integer registers an instruction may read (gen set for dataflow).
    [Syscall] is assumed to read the argument registers [r0]-[r3]. *)

val to_string : t -> string
(** Disassembly, e.g. ["add r1, r2, #3"]. *)

val cond_to_string : cond -> string
val eval_cond : cond -> int -> int -> bool
val eval_fcond : cond -> float -> float -> bool
