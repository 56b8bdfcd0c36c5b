(** Assembled programs.

    A program is a Harvard-layout image: instructions live in [code]
    (addressed by index; not reachable through data loads/stores, so
    memory fault injection cannot corrupt user text — a documented
    deviation from the paper), while initialised data and BSS blocks are
    laid out from [data_base] upward in the program's virtual address
    space.

    Floating-point values stored to memory are packed as IEEE-754 single
    precision bits in the low 32 bits of a word ([float_to_word] /
    [word_to_float]); FP registers hold doubles internally. *)

type data_block = {
  block_label : string;
  block_addr : int;  (** Virtual word address of the first element. *)
  block_init : int array;  (** Initial contents ([0]s for BSS). *)
}

type t = {
  name : string;
  code : Instr.t array;  (** All branch targets are [Abs]; no [La] remains. *)
  data : data_block list;
  data_words : int;  (** Total words from [data_base] used by data+BSS. *)
  entry : int;
  code_labels : (string * int) list;
  branch_counted : bool;
      (** Whether the compiler-assisted branch-counting pass ran. *)
}

val data_base : int
(** Virtual word address where program data starts (64 Ki words). *)

val label_addr : t -> string -> int
(** Code address of a label. Raises [Not_found]. *)

val data_addr : t -> string -> int
(** Virtual address of a data block. Raises [Not_found]. *)

val data_image : t -> int array
(** The initial data segment, [data_words] long, relative to
    [data_base]. *)

val float_to_word : float -> int
val word_to_float : int -> float

val get_float_word : float array -> int -> int
(** [get_float_word regs i] is [float_to_word regs.(i)], and
    {!set_float_word} [regs i w] is [regs.(i) <- word_to_float w]: the
    FP load and store conversions with no float crossing a module
    boundary, where it would be boxed. *)

val set_float_word : float array -> int -> int -> unit

val disassemble : t -> string
(** Multi-line listing with addresses and label annotations. *)

val instruction_count : t -> int
