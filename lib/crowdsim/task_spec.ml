type kind = Sentence_translation | Text_creation | Custom of string

type t = { kind : kind; title : string; units : int; difficulty : float }

let kind_label = function
  | Sentence_translation -> "Sentence translation"
  | Text_creation -> "Text creation"
  | Custom name -> name

let equal_kind a b =
  match (a, b) with
  | Sentence_translation, Sentence_translation | Text_creation, Text_creation -> true
  | Custom x, Custom y -> String.equal x y
  | (Sentence_translation | Text_creation | Custom _), _ -> false

let make ~kind ~title ?(units = 3) ?(difficulty = 0.5) () =
  if units <= 0 then invalid_arg "Task_spec.make: units must be positive";
  if difficulty < 0. || difficulty > 1. then
    invalid_arg "Task_spec.make: difficulty outside [0,1]";
  { kind; title; units; difficulty }

let translation_samples =
  [
    make ~kind:Sentence_translation ~title:"Mary Had a Little Lamb" ~difficulty:0.4 ();
    make ~kind:Sentence_translation ~title:"Lavender's Blue" ~difficulty:0.5 ();
    make ~kind:Sentence_translation ~title:"Rock-a-bye Baby" ~difficulty:0.55 ();
  ]

let creation_samples =
  [
    make ~kind:Text_creation ~title:"Robert Mueller Report" ~difficulty:0.6 ();
    make ~kind:Text_creation ~title:"Notre Dame Cathedral" ~difficulty:0.5 ();
    make ~kind:Text_creation ~title:"2019 Pulitzer Prizes" ~difficulty:0.55 ();
  ]

let hit_hours = 2.
let pay_per_worker = 2.

let pp ppf t = Format.fprintf ppf "%s: %s (%d units)" (kind_label t.kind) t.title t.units
