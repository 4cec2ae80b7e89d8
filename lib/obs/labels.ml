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

let encode_series name labels = name ^ render labels

(* Parse the encoded spelling back. The name is everything before the
   first '{'; inside the braces, values are quoted with the escape set
   above. Unlabeled series round-trip as the bare name. *)
let decode_series encoded =
  match String.index_opt encoded '{' with
  | None -> Ok (encoded, [])
  | Some brace ->
      let name = String.sub encoded 0 brace in
      let len = String.length encoded in
      if len = 0 || encoded.[len - 1] <> '}' then
        Error (Printf.sprintf "series %S: unterminated label block" encoded)
      else begin
        let fail msg = Error (Printf.sprintf "series %S: %s" encoded msg) in
        let pos = ref (brace + 1) in
        let out = ref [] in
        let bad = ref None in
        let stop msg = if !bad = None then bad := Some msg in
        let read_key () =
          let start = !pos in
          while
            !pos < len - 1
            && (match encoded.[!pos] with
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
               | _ -> false)
          do
            incr pos
          done;
          String.sub encoded start (!pos - start)
        in
        let read_value () =
          if !pos >= len - 1 || encoded.[!pos] <> '"' then (stop "expected opening quote"; "")
          else begin
            incr pos;
            let buf = Buffer.create 16 in
            let rec go () =
              if !pos >= len - 1 then stop "unterminated label value"
              else
                match encoded.[!pos] with
                | '"' -> incr pos
                | '\\' ->
                    if !pos + 1 >= len - 1 then (stop "dangling escape"; incr pos)
                    else begin
                      (match encoded.[!pos + 1] with
                      | '\\' -> Buffer.add_char buf '\\'
                      | '"' -> Buffer.add_char buf '"'
                      | 'n' -> Buffer.add_char buf '\n'
                      | c -> stop (Printf.sprintf "unknown escape '\\%c'" c));
                      pos := !pos + 2;
                      go ()
                    end
                | c ->
                    Buffer.add_char buf c;
                    incr pos;
                    go ()
            in
            go ();
            Buffer.contents buf
          end
        in
        let rec pairs () =
          if !bad <> None || !pos >= len - 1 then ()
          else begin
            let key = read_key () in
            if key = "" then stop "empty label key"
            else if !pos >= len - 1 || encoded.[!pos] <> '=' then stop "expected '='"
            else begin
              incr pos;
              let value = read_value () in
              out := (key, value) :: !out;
              if !bad = None && !pos < len - 1 then
                if encoded.[!pos] = ',' then begin
                  incr pos;
                  pairs ()
                end
                else stop "expected ',' between labels"
            end
          end
        in
        pairs ();
        match !bad with
        | Some msg -> fail msg
        | None -> (
            match normalize (List.rev !out) with
            | labels -> Ok (name, labels)
            | exception Invalid_argument msg -> fail msg)
      end
