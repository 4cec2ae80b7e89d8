type structure = Sequential | Simultaneous
type organization = Collaborative | Independent
type style = Crowd_only | Hybrid
type combo = { structure : structure; organization : organization; style : style }

let all_structures = [ Sequential; Simultaneous ]
let all_organizations = [ Collaborative; Independent ]
let all_styles = [ Crowd_only; Hybrid ]

let all_combos =
  List.concat_map
    (fun structure ->
      List.concat_map
        (fun organization ->
          List.map (fun style -> { structure; organization; style }) all_styles)
        all_organizations)
    all_structures

let combo_count = List.length all_combos

let structure_abbrev = function Sequential -> "SEQ" | Simultaneous -> "SIM"
let organization_abbrev = function Collaborative -> "COL" | Independent -> "IND"
let style_abbrev = function Crowd_only -> "CRO" | Hybrid -> "HYB"

let combo_label c =
  String.concat "-"
    [ structure_abbrev c.structure; organization_abbrev c.organization; style_abbrev c.style ]

let structure_of_abbrev = function
  | "SEQ" -> Some Sequential
  | "SIM" -> Some Simultaneous
  | _ -> None

let organization_of_abbrev = function
  | "COL" -> Some Collaborative
  | "IND" -> Some Independent
  | _ -> None

let style_of_abbrev = function "CRO" -> Some Crowd_only | "HYB" -> Some Hybrid | _ -> None

let combo_of_label label =
  match String.split_on_char '-' label with
  | [ s; o; y ] -> (
      match (structure_of_abbrev s, organization_of_abbrev o, style_of_abbrev y) with
      | Some structure, Some organization, Some style -> Some { structure; organization; style }
      | _ -> None)
  | _ -> None

let equal_combo a b =
  a.structure = b.structure && a.organization = b.organization && a.style = b.style
