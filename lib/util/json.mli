(** Minimal JSON representation, printer and parser.

    Strategy catalogs and deployment requests are exchanged as JSON by the
    CLI and any surrounding tooling; the container is dependency-sealed, so
    this is a small self-contained implementation (objects, arrays,
    strings with escapes including \uXXXX for the BMP, numbers, booleans,
    null). Numbers are represented as OCaml floats. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize; [indent] > 0 pretty-prints with that many spaces per
    level (default 0: compact). Non-finite numbers raise
    [Invalid_argument] (JSON cannot represent them). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; the error string carries a character
    offset. Trailing non-whitespace input is an error, and so is a number
    too large for a finite float (e.g. [1e400]): every parsed [Number]
    can be printed back by {!to_string}. *)

(** {1 Accessors} — total functions returning [option]. *)

val member : string -> t -> t option
(** Object field lookup (first match). *)

val to_float : t -> float option
val to_int : t -> int option
(** [Number] with integral value only. *)

val to_list : t -> t list option
val to_string_value : t -> string option

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
