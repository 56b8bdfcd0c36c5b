(** Small descriptive-statistics helpers used by the experiment harness to
    report means and standard deviations in the paper's style (std. dev. in
    units of the least significant digit, shown in parentheses). *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val summarize : float list -> summary
(** [summarize xs] computes sample statistics ([stddev] uses the n-1
    denominator; it is 0 for fewer than two samples).
    Raises [Invalid_argument] on the empty list. *)

val mean : float list -> float
val stddev : float list -> float

val geomean : float list -> float
(** Geometric mean; used for the SPLASH-2 overhead summary (Table IV).
    Raises [Invalid_argument] on the empty list or non-positive values. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in \[0,100\], nearest-rank on sorted data. *)

val format_paper : decimals:int -> summary -> string
(** Render as the paper does: ["86 (0)"], ["130 (11)"] — mean with the
    standard deviation in parentheses expressed in units of the least
    significant printed digit. *)
