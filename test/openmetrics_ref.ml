(* The OpenMetrics exposition the library ran before it appended each
   piece of a line to its buffer: every line through Printf.ksprintf,
   label blocks and bucket labels rendered to strings first. Kept as
   the oracle test_obs compares Snapshot.to_openmetrics with. *)

module Json = Stratrec_util.Json
open Stratrec_obs.Snapshot

module Labels = struct
  (* Label values escape backslash, double quote and newline, per the
     exposition format. *)
  let escape_value text =
    let buf = Buffer.create (String.length text) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      text;
    Buffer.contents buf

  let render_pairs buf labels =
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf key;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_value value);
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
end

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
let escape_help text =
  let buf = Buffer.create (String.length text) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    text;
  Buffer.contents buf

let openmetrics_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Json.to_string (Json.Number f)

let to_openmetrics t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* Labeled siblings of one family sit consecutively in series order;
     the HELP/TYPE block is emitted once per family, from its first
     series (the registry guarantees one instrument kind per family). *)
  let previous = ref None in
  List.iter
    (fun { name; labels; value } ->
      let sname = sanitize_name name in
      let rendered = Labels.render labels in
      (* Histogram buckets compose the series labels with le; the series
         labels come first, matching the canonical exposition order. *)
      let bucket_labels bound =
        let b = Buffer.create 32 in
        Buffer.add_char b '{';
        Labels.render_pairs b labels;
        if labels <> [] then Buffer.add_char b ',';
        Buffer.add_string b "le=\"";
        Buffer.add_string b (Labels.escape_value bound);
        Buffer.add_string b "\"}";
        Buffer.contents b
      in
      if !previous <> Some name then begin
        previous := Some name;
        line "# HELP %s %s" sname (escape_help name);
        line "# TYPE %s %s" sname
          (match value with
          | Counter _ -> "counter"
          | Gauge _ -> "gauge"
          | Histogram _ -> "histogram")
      end;
      match value with
      | Counter n -> line "%s%s %d" sname rendered n
      | Gauge v -> line "%s%s %s" sname rendered (openmetrics_float v)
      | Histogram h ->
          (* Exposition buckets are cumulative; ours are per-bucket. The
             final (+inf) bound always renders as le="+Inf" — snapshots
             carry it explicitly, but cap the cumulative count at the
             total either way. *)
          let cum = ref 0 in
          List.iter
            (fun (le, n) ->
              cum := !cum + n;
              let bound =
                if Float.is_finite le then openmetrics_float le else "+Inf"
              in
              line "%s_bucket%s %d" sname (bucket_labels bound) !cum)
            h.buckets;
          line "%s_sum%s %s" sname rendered (openmetrics_float h.sum);
          line "%s_count%s %d" sname rendered h.count)
    t;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
