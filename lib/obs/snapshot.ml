module Tabular = Stratrec_util.Tabular
module Json = Stratrec_util.Json

type histogram = {
  buckets : (float * int) list;
  count : int;
  sum : float;
  min : float;
  max : float;
}

type value = Counter of int | Gauge of float | Histogram of histogram

type entry = { name : string; labels : Labels.t; value : value }

type t = entry list

let empty = []

(* Series order: by name, then labels — the unlabeled series ([] sorts
   first) leads its family, and every labeled sibling follows
   consecutively, which is what the exposition grouping relies on. *)
let compare_series (name, labels) (name', labels') =
  match String.compare name name' with
  | 0 -> Labels.compare labels labels'
  | c -> c

let series_name { name; labels; _ } = Labels.encode_series name labels

let find ?(labels = []) t name =
  List.find_map
    (fun e ->
      if String.equal e.name name && Labels.equal e.labels labels then Some e.value
      else None)
    t

let counter_value ?labels t name =
  match find ?labels t name with
  | Some (Counter n) -> n
  | Some (Gauge _ | Histogram _) | None -> 0

let gauge_value ?labels t name =
  match find ?labels t name with
  | Some (Gauge v) -> v
  | Some (Counter _ | Histogram _) | None -> 0.

let histogram_count ?labels t name =
  match find ?labels t name with
  | Some (Histogram h) -> h.count
  | Some (Counter _ | Gauge _) | None -> 0

let histogram_sum ?labels t name =
  match find ?labels t name with
  | Some (Histogram h) -> h.sum
  | Some (Counter _ | Gauge _) | None -> 0.

(* Quantile estimate from the bucketed counts: find the bucket holding
   the q-th observation and interpolate linearly inside it, using the
   recorded min/max as the edges of the first and overflow buckets (the
   exact values inside a bucket are gone; this is the histogram_quantile
   estimator, bounded by construction to [min, max]). *)
let histogram_quantile h q =
  if h.count = 0 then 0.
  else
    let q = Float.min 1. (Float.max 0. q) in
    let rank = q *. float_of_int h.count in
    let clamp v = Float.min h.max (Float.max h.min v) in
    let rec go lower cum = function
      | [] -> h.max
      | (le, n) :: rest ->
          let cum' = cum + n in
          if n > 0 && float_of_int cum' >= rank then
            let upper = Float.max lower (if Float.is_finite le then le else h.max) in
            let frac = (rank -. float_of_int cum) /. float_of_int n in
            clamp (lower +. ((upper -. lower) *. frac))
          else go (if Float.is_finite le then Float.max lower le else lower) cum' rest
    in
    go h.min 0 h.buckets

let to_table t =
  let table = Tabular.create ~columns:[ "metric"; "type"; "value"; "detail" ] in
  List.iter
    (fun ({ value; _ } as e) ->
      let series = series_name e in
      let row =
        match value with
        | Counter n -> [ series; "counter"; string_of_int n; "" ]
        | Gauge v -> [ series; "gauge"; Printf.sprintf "%g" v; "" ]
        | Histogram h ->
            [
              series;
              "histogram";
              string_of_int h.count;
              Printf.sprintf "sum=%g min=%g max=%g" h.sum h.min h.max;
            ]
      in
      Tabular.add_row table row)
    t;
  table

let to_json t =
  let histogram_json h =
    Json.Object
      [
        ("count", Json.Number (float_of_int h.count));
        ("sum", Json.Number h.sum);
        ("min", Json.Number h.min);
        ("max", Json.Number h.max);
        ( "buckets",
          Json.List
            (List.map
               (fun (le, n) ->
                 Json.Object
                   [
                     (* The shortest round-tripping rendering (via the
                        Json number printer), so a reader recovers the
                        exact bound; "+inf" for the overflow bucket. *)
                     ( "le",
                       Json.String
                         (if Float.is_finite le then Json.to_string (Json.Number le)
                          else "+inf") );
                     ("count", Json.Number (float_of_int n));
                   ])
               h.buckets) );
      ]
  in
  Json.Object
    (List.map
       (fun ({ value; _ } as e) ->
         let v =
           match value with
           | Counter n ->
               Json.Object
                 [ ("type", Json.String "counter"); ("value", Json.Number (float_of_int n)) ]
           | Gauge g -> Json.Object [ ("type", Json.String "gauge"); ("value", Json.Number g) ]
           | Histogram h ->
               Json.Object [ ("type", Json.String "histogram"); ("value", histogram_json h) ]
         in
         (series_name e, v))
       t)

(* --- OpenMetrics / Prometheus text exposition --- *)

(* Metric names are restricted to [a-zA-Z0-9_:]; the registry's dotted
   names map dots (and anything else foreign) to underscores. The
   original dotted spelling survives in the HELP line. *)
let sanitize_name name =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
      name
  in
  if mapped = "" then "_"
  else
    match mapped.[0] with
    | '0' .. '9' -> "_" ^ mapped
    | _ -> mapped

(* HELP text escaping per the exposition format: backslash and newline. *)
let add_escaped_help buf text =
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    text

let add_openmetrics_float buf f =
  if Float.is_nan f then Buffer.add_string buf "NaN"
  else if f = Float.infinity then Buffer.add_string buf "+Inf"
  else if f = Float.neg_infinity then Buffer.add_string buf "-Inf"
  else Json.add_number buf f

(* Each line is appended piece by piece — the family's sanitized name
   (computed once per family), a suffix, the label block, the value —
   with no per-line string. *)
let add_openmetrics buf t =
  let sample sname suffix labels =
    Buffer.add_string buf sname;
    Buffer.add_string buf suffix;
    (match labels with
    | [] -> ()
    | _ ->
        Buffer.add_char buf '{';
        Labels.render_pairs buf labels;
        Buffer.add_char buf '}');
    Buffer.add_char buf ' '
  in
  let int_value n =
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf '\n'
  in
  let float_value f =
    add_openmetrics_float buf f;
    Buffer.add_char buf '\n'
  in
  (* Labeled siblings of one family sit consecutively in series order;
     the HELP/TYPE block is emitted once per family, from its first
     series (the registry guarantees one instrument kind per family). *)
  let family = ref None in
  List.iter
    (fun { name; labels; value } ->
      let sname =
        match !family with
        | Some (previous, sname) when String.equal previous name -> sname
        | Some _ | None ->
            let sname = sanitize_name name in
            family := Some (name, sname);
            Buffer.add_string buf "# HELP ";
            Buffer.add_string buf sname;
            Buffer.add_char buf ' ';
            add_escaped_help buf name;
            Buffer.add_string buf "\n# TYPE ";
            Buffer.add_string buf sname;
            Buffer.add_string buf
              (match value with
              | Counter _ -> " counter\n"
              | Gauge _ -> " gauge\n"
              | Histogram _ -> " histogram\n");
            sname
      in
      match value with
      | Counter n ->
          sample sname "" labels;
          int_value n
      | Gauge v ->
          sample sname "" labels;
          float_value v
      | Histogram h ->
          (* Exposition buckets are cumulative; ours are per-bucket. The
             final (+inf) bound always renders as le="+Inf" — snapshots
             carry it explicitly, but cap the cumulative count at the
             total either way. Bucket labels compose the series labels
             with le, series labels first, the canonical exposition
             order. *)
          let cum = ref 0 in
          List.iter
            (fun (le, n) ->
              cum := !cum + n;
              Buffer.add_string buf sname;
              Buffer.add_string buf "_bucket{";
              Labels.render_pairs buf labels;
              (match labels with [] -> () | _ -> Buffer.add_char buf ',');
              Buffer.add_string buf "le=\"";
              if Float.is_finite le then add_openmetrics_float buf le
              else Buffer.add_string buf "+Inf";
              Buffer.add_string buf "\"} ";
              int_value !cum)
            h.buckets;
          sample sname "_sum" labels;
          float_value h.sum;
          sample sname "_count" labels;
          int_value h.count)
    t;
  Buffer.add_string buf "# EOF\n"

let to_openmetrics t =
  let buf = Buffer.create 4096 in
  add_openmetrics buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (Tabular.render (to_table t))
