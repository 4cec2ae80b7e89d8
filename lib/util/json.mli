(** Minimal JSON representation, printer and parser.

    Strategy catalogs and deployment requests are exchanged as JSON by the
    CLI and any surrounding tooling; the container is dependency-sealed, so
    this is a small self-contained implementation (objects, arrays,
    strings with escapes, numbers, booleans, null). Numbers are
    represented as OCaml floats. A [\u] escape takes exactly four hex
    digits. A UTF-16 surrogate pair (a [\uD800]-[\uDBFF] escape
    followed by a [\uDC00]-[\uDFFF] escape) decodes to the one code
    point it spells, as four UTF-8 bytes; a lone surrogate of either
    kind is an invalid escape. *)

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

(** {1 Writers} — the bytes {!to_string} prints for one value, appended
    to a buffer, for callers that write a document without building a
    [t]. *)

val add_string : Buffer.t -> string -> unit
(** The quoted string: double quote and backslash are backslash-escaped,
    control bytes written as the two-character escapes or as a [\u00XX]
    escape, and every other byte (UTF-8 included) as itself. *)

val add_number : Buffer.t -> float -> unit
(** Integral values below 1e15 as integers ([-0] keeps its sign), others
    in the shortest of [%.15g] / [%.17g] that reads back exactly.
    @raise Invalid_argument on a non-finite number, with nothing
    appended. *)

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
