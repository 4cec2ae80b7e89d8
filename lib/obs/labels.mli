(** Metric labels: sorted, unique key/value pairs attached to a series.

    A labeled series is identified by [(name, labels)] with [labels] in
    canonical form — sorted by key, keys unique and matching
    [\[a-zA-Z_\]\[a-zA-Z0-9_\]*], and never ["le"] (reserved for
    histogram buckets in the exposition format). The canonical rendered
    spelling [{k="v",k2="v2"}] is shared between the OpenMetrics
    exposition and the JSON snapshot keys, so one escaping serves
    both. *)

type t = (string * string) list
(** Canonical form: sorted by key, keys unique. Obtain via {!normalize}. *)

val empty : t

val normalize : (string * string) list -> t
(** Sorts by key and validates. @raise Invalid_argument on an invalid or
    duplicate key, or the reserved key ["le"]. Values are unrestricted
    (escaped at render time). *)

val compare : t -> t -> int
(** Lexicographic over (key, value) pairs; canonical inputs assumed. *)

val equal : t -> t -> bool

val render : t -> string
(** [{k="v",k2="v2"}] for non-empty labels, [""] for {!empty}. Values
    are escaped per the exposition format: backslash, double quote and
    newline. *)

val render_pairs : Buffer.t -> t -> unit
(** The comma-joined pairs without the surrounding braces — for
    composing with extra labels such as the histogram [le]. *)

val encode_series : string -> t -> string
(** [name ^ render labels] — the unique series key used in snapshot JSON
    documents. *)
