(* Metric labels: the canonical form is sorted by key with unique keys,
   so two series carrying the same pairs in any order are the same
   series. The rendered spelling {k="v",k2="v2"} doubles as the
   OpenMetrics exposition fragment and the JSON object key of labeled
   snapshot entries, so one escaping/parsing pair serves both. *)

type t = (string * string) list

let empty = []

let valid_key key =
  String.length key > 0
  && (match key.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       key

let normalize pairs =
  (* Most series carry no label, and every registry lookup normalizes:
     skip the sort's allocation where there is nothing to sort. *)
  let sorted =
    match pairs with
    | [] | [ _ ] -> pairs
    | _ -> List.sort (fun (a, _) (b, _) -> String.compare a b) pairs
  in
  let rec check = function
    | [] -> ()
    | (key, _) :: rest ->
        if not (valid_key key) then
          invalid_arg
            (Printf.sprintf
               "Stratrec_obs.Labels: invalid label key %S (want [a-zA-Z_][a-zA-Z0-9_]*)" key);
        if String.equal key "le" then
          invalid_arg
            "Stratrec_obs.Labels: label key \"le\" is reserved for histogram buckets";
        (match rest with
        | (key', _) :: _ when String.equal key key' ->
            invalid_arg (Printf.sprintf "Stratrec_obs.Labels: duplicate label key %S" key)
        | _ -> ());
        check rest
  in
  check sorted;
  sorted

let compare a b =
  List.compare
    (fun (ka, va) (kb, vb) ->
      match String.compare ka kb with 0 -> String.compare va vb | c -> c)
    a b

let equal a b = compare a b = 0

(* Label values escape backslash, double quote and newline, per the
   exposition format; each run needing no escape is added whole. *)
let add_escaped_value buf text =
  let n = String.length text in
  let run = ref 0 in
  for i = 0 to n - 1 do
    match String.unsafe_get text i with
    | ('\\' | '"' | '\n') as c ->
        Buffer.add_substring buf text !run (i - !run);
        Buffer.add_string buf (match c with '\\' -> "\\\\" | '"' -> "\\\"" | _ -> "\\n");
        run := i + 1
    | _ -> ()
  done;
  Buffer.add_substring buf text !run (n - !run)

let render_pairs buf labels =
  List.iteri
    (fun i (key, value) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf key;
      Buffer.add_string buf "=\"";
      add_escaped_value buf value;
      Buffer.add_char buf '"')
    labels

let render = function
  | [] -> ""
  | labels ->
      let buf = Buffer.create 32 in
      Buffer.add_char buf '{';
      render_pairs buf labels;
      Buffer.add_char buf '}';
      Buffer.contents buf

let encode_series name labels = name ^ render labels
