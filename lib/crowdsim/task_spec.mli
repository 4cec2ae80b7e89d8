(** Collaborative text-editing tasks (§5.1.1).

    The study deployed two task types: sentence translation (English to
    Hindi nursery rhymes) and text creation (4–5 sentences on a news
    topic). A HIT bundles several such tasks, allots 2 hours of work, and
    pays $2 per worker who spends more than 10 minutes. *)

type kind = Sentence_translation | Text_creation | Custom of string

type t = {
  kind : kind;
  title : string;
  units : int;  (** tasks per HIT (3 in the study) *)
  difficulty : float;  (** in [\[0, 1\]]; harder tasks score lower quality *)
}

val kind_label : kind -> string
val equal_kind : kind -> kind -> bool

val make : kind:kind -> title:string -> ?units:int -> ?difficulty:float -> unit -> t
(** Defaults: 3 units, difficulty 0.5.
    @raise Invalid_argument on non-positive units or difficulty outside
    [\[0,1\]]. *)

val translation_samples : t list
(** The three nursery rhymes of the study. *)

val creation_samples : t list
(** The three news topics of the study. *)

val hit_hours : float
(** Hours allotted per HIT (2 in the study). *)

val pay_per_worker : float
(** Dollars paid per worker per HIT ($2 in the study). *)

val pp : Format.formatter -> t -> unit
