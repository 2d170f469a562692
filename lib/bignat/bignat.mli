(** Arbitrary-precision natural numbers.

    Call graphs in the paper have up to 5 x 10^23 reduced call paths
    (pmd, Figure 3), far beyond [max_int].  This module provides the
    small arbitrary-precision arithmetic needed to count call paths,
    size BDD context domains, and print Figure 3's "C.S. Paths" column.

    Values are immutable.  Only naturals are supported; subtraction
    saturates at zero. *)

type t

val zero : t
val one : t

val of_int : int -> t
(** [of_int n] is [n] as a natural.  Raises [Invalid_argument] if
    [n < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in an OCaml [int]. *)

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [max 0 (a - b)] (saturating). *)

val mul : t -> t -> t
val succ : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val shift_left : t -> int -> t
(** [shift_left n k] is [n * 2^k]. *)

val pow2 : int -> t
(** [pow2 k] is [2^k]. *)

val num_bits : t -> int
(** [num_bits n] is the number of bits needed to represent [n]; 0 for
    zero.  Equivalently [ceil (log2 (n + 1))]. *)

val to_string : t -> string
(** Decimal representation. *)

val of_string : string -> t
(** Parses a decimal string.  Raises [Invalid_argument] on anything
    other than a non-empty digit sequence. *)

val to_scientific : t -> string
(** Short form like ["5e23"] or ["4e4"], matching how Figure 3 reports
    path counts ("5 x 10^23").  Exact below 10^4. *)
