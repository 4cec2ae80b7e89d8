(** R-tree over 3-D points with attached values.

    Substrate for the paper's [Baseline3] (§5.2.1), which indexes strategy
    points with an R-tree and scans node MBBs for one containing [k]
    strategies. Supports one-by-one insertion with quadratic split
    (Guttman / R*-tree-style) and Sort-Tile-Recursive bulk loading. *)

type 'a t

val empty : ?max_entries:int -> unit -> 'a t
(** [max_entries] is the node fanout M (default 8); the minimum fill is
    [max 2 (M/3)]. @raise Invalid_argument if [max_entries < 4]. *)

val insert : 'a t -> Point3.t -> 'a -> 'a t
(** Persistent insertion (path copying). *)

val bulk_load : ?max_entries:int -> (Point3.t * 'a) list -> 'a t
(** Sort-Tile-Recursive packing; produces a compact, well-clustered tree. *)

val size : 'a t -> int
val search : 'a t -> Box3.t -> (Point3.t * 'a) list
(** All entries whose point lies in the (closed) box. *)

val nodes : 'a t -> (Box3.t * int) list
(** Every node's MBB paired with the number of entries in its subtree,
    ordered by a pre-order walk (root first). Empty tree yields []. *)

val check_invariants : 'a t -> (unit, string) result
(** Validates MBB containment, fill factors and uniform leaf depth; used by
    the property-based tests. *)
