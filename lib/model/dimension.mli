(** The three dimensions of a deployment strategy (§2.1).

    A strategy instantiates Structure (how the workforce is solicited),
    Organization (how workers are organized), and Style (whether machines
    assist). The standard abbreviations follow the paper: SEQ/SIM, COL/IND,
    CRO/HYB. *)

type structure = Sequential | Simultaneous
type organization = Collaborative | Independent
type style = Crowd_only | Hybrid

(** One (Structure, Organization, Style) instantiation, e.g. SEQ-IND-CRO. *)
type combo = { structure : structure; organization : organization; style : style }

val all_combos : combo list
(** All [2 x 2 x 2 = 8] combinations, in a fixed order. *)

val combo_count : int

val structure_abbrev : structure -> string
val organization_abbrev : organization -> string
val style_abbrev : style -> string

val combo_label : combo -> string
(** e.g. ["SEQ-IND-CRO"]. *)

val combo_of_label : string -> combo option
(** Inverse of {!combo_label}; [None] on malformed labels. *)

val equal_combo : combo -> combo -> bool
