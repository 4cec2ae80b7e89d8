module Tabular = Stratrec_util.Tabular
module Json = Stratrec_util.Json

type attr =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type record = {
  id : int;
  parent : int option;
  name : string;
  start_ts : float;
  mutable end_ts : float;  (* nan until finished *)
  mutable rattrs : (string * attr) list;  (* attachment order *)
}

type verdict =
  | Satisfied of { workforce : float; strategies : string list }
  | Triaged of { quality : float; cost : float; latency : float; distance : float }
  | Rejected of { binding : string }

type decision = { request_id : int; label : string; at : float; verdict : verdict }

type state = {
  clock : unit -> float;
  capacity : int;
  mutable retained : record list;  (* newest first *)
  mutable retained_count : int;
  mutable dropped : int;
  mutable stack : record list;  (* innermost open span first *)
  mutable decided : decision list;  (* newest first *)
  mutable decided_count : int;
  mutable next_id : int;
}

type t = Noop | Active of state

let create ?(capacity = 4096) ?(clock = Sys.time) () =
  if capacity < 1 then invalid_arg "Stratrec_obs.Trace.create: capacity must be >= 1";
  Active
    {
      clock;
      capacity;
      retained = [];
      retained_count = 0;
      dropped = 0;
      stack = [];
      decided = [];
      decided_count = 0;
      next_id = 0;
    }

let noop = Noop
let enabled = function Noop -> false | Active _ -> true

let span ?(attrs = []) t name f =
  match t with
  | Noop -> f ()
  | Active s ->
      let parent = match s.stack with r :: _ -> Some r.id | [] -> None in
      let id = s.next_id in
      s.next_id <- id + 1;
      (* A dropped span still goes on the stack, so its children get
         their parent id, but nothing reads its timestamps: it skips the
         clock, which costs a system call with the default [Sys.time]. *)
      let retained = s.retained_count < s.capacity in
      let start_ts = if retained then s.clock () else Float.nan in
      let r = { id; parent; name; start_ts; end_ts = Float.nan; rattrs = attrs } in
      if retained then begin
        s.retained <- r :: s.retained;
        s.retained_count <- s.retained_count + 1
      end
      else s.dropped <- s.dropped + 1;
      s.stack <- r :: s.stack;
      let finish () =
        if retained then r.end_ts <- s.clock ();
        (* Pop back to (and including) this span — tolerant of an
           unbalanced stack after an exception skipped inner finishes. *)
        let rec pop = function
          | top :: rest -> if top == r then rest else pop rest
          | [] -> []
        in
        s.stack <- pop s.stack
      in
      (match f () with
      | value ->
          finish ();
          value
      | exception exn ->
          finish ();
          raise exn)

let add_attr t key value =
  match t with
  | Noop -> ()
  | Active s -> (
      match s.stack with
      | r :: _ -> r.rattrs <- r.rattrs @ [ (key, value) ]
      | [] -> ())

let decide t ~id ~label verdict =
  match t with
  | Noop -> ()
  | Active s ->
      if s.decided_count < s.capacity then begin
        s.decided <- { request_id = id; label; at = s.clock (); verdict } :: s.decided;
        s.decided_count <- s.decided_count + 1
      end
      else s.dropped <- s.dropped + 1

let decisions = function Noop -> [] | Active s -> List.rev s.decided

let current_span_id = function
  | Noop -> None
  | Active s -> ( match s.stack with r :: _ -> Some r.id | [] -> None)

let span_count = function Noop -> 0 | Active s -> s.retained_count
let dropped = function Noop -> 0 | Active s -> s.dropped

(* --- introspection --- *)

type node = {
  id : int;
  parent : int option;
  name : string;
  depth : int;
  start_ts : float;
  duration : float;
  attrs : (string * attr) list;
}

let duration_of r = if Float.is_nan r.end_ts then 0. else Float.max 0. (r.end_ts -. r.start_ts)

let nodes = function
  | Noop -> []
  | Active s ->
      let records : record list = List.rev s.retained in
      (* start order *)
      let present = Hashtbl.create (List.length records) in
      List.iter (fun (r : record) -> Hashtbl.replace present r.id ()) records;
      let children : (int, record list) Hashtbl.t = Hashtbl.create 16 in
      let is_root (r : record) =
        match r.parent with None -> true | Some p -> not (Hashtbl.mem present p)
      in
      List.iter
        (fun (r : record) ->
          match r.parent with
          | Some p when Hashtbl.mem present p ->
              Hashtbl.replace children p (r :: Option.value (Hashtbl.find_opt children p) ~default:[])
          | Some _ | None -> ())
        records;
      let rec walk depth (r : record) =
        let parent = if is_root r then None else r.parent in
        {
          id = r.id;
          parent;
          name = r.name;
          depth;
          start_ts = r.start_ts;
          duration = duration_of r;
          attrs = r.rattrs;
        }
        :: List.concat_map (walk (depth + 1))
             (List.rev (Option.value (Hashtbl.find_opt children r.id) ~default:[]))
      in
      List.concat_map (walk 0) (List.filter is_root records)

(* --- renderers --- *)

let pp_attr ppf = function
  | Bool b -> Format.pp_print_bool ppf b
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.pp_print_string ppf s

let attrs_line attrs =
  String.concat " "
    (List.map (fun (k, v) -> Format.asprintf "%s=%a" k pp_attr v) attrs)

let to_tree t =
  let table = Tabular.create ~columns:[ "span"; "ms"; "attrs" ] in
  List.iter
    (fun n ->
      Tabular.add_row table
        [
          String.make (2 * n.depth) ' ' ^ n.name;
          Printf.sprintf "%.3f" (n.duration *. 1e3);
          attrs_line n.attrs;
        ])
    (nodes t);
  table

let json_of_attr = function
  | Bool b -> Json.Bool b
  | Int n -> Json.Number (float_of_int n)
  | Float f -> if Float.is_finite f then Json.Number f else Json.String (Printf.sprintf "%g" f)
  | String s -> Json.String s

let microseconds seconds = seconds *. 1e6

let event_fields ~name ~cat ~ph ~ts extra args =
  [
    ("name", Json.String name);
    ("cat", Json.String cat);
    ("ph", Json.String ph);
    ("ts", Json.Number (microseconds ts));
  ]
  @ extra
  @ [ ("pid", Json.Number 1.); ("tid", Json.Number 1.); ("args", Json.Object args) ]

let verdict_args = function
  | Satisfied { workforce; strategies } ->
      [
        ("verdict", Json.String "satisfied");
        ("workforce", Json.Number workforce);
        ("strategies", Json.List (List.map (fun s -> Json.String s) strategies));
      ]
  | Triaged { quality; cost; latency; distance } ->
      [
        ("verdict", Json.String "triaged");
        ("quality", Json.Number quality);
        ("cost", Json.Number cost);
        ("latency", Json.Number latency);
        ("distance", Json.Number distance);
      ]
  | Rejected { binding } ->
      [ ("verdict", Json.String "rejected"); ("binding", Json.String binding) ]

let to_chrome_json t =
  let span_events =
    List.map
      (fun n ->
        Json.Object
          (event_fields ~name:n.name ~cat:"stratrec" ~ph:"X" ~ts:n.start_ts
             [ ("dur", Json.Number (microseconds n.duration)) ]
             (("span_id", Json.Number (float_of_int n.id))
             :: ( "parent_id",
                  match n.parent with
                  | Some p -> Json.Number (float_of_int p)
                  | None -> Json.Null )
             :: List.map (fun (k, v) -> (k, json_of_attr v)) n.attrs)))
      (nodes t)
  in
  let decision_events =
    List.map
      (fun d ->
        Json.Object
          (event_fields ~name:("decision:" ^ d.label) ~cat:"stratrec.decision" ~ph:"i"
             ~ts:d.at
             [ ("s", Json.String "t") ]
             (("request_id", Json.Number (float_of_int d.request_id)) :: verdict_args d.verdict)))
      (decisions t)
  in
  Json.Object
    [
      ("traceEvents", Json.List (span_events @ decision_events));
      ("displayTimeUnit", Json.String "ms");
    ]

let pp_verdict ppf = function
  | Satisfied { workforce; strategies } ->
      Format.fprintf ppf "satisfied (w=%.3f) [%s]" workforce (String.concat "; " strategies)
  | Triaged { quality; cost; latency; distance } ->
      Format.fprintf ppf "triaged {q=%.3f; c=%.3f; l=%.3f} distance %.4f" quality cost
        latency distance
  | Rejected { binding } -> Format.fprintf ppf "rejected (%s)" binding

let pp_decision ppf d = Format.fprintf ppf "%s -> %a" d.label pp_verdict d.verdict

let pp ppf t =
  Format.fprintf ppf "trace: %d span%s%s@." (span_count t)
    (if span_count t = 1 then "" else "s")
    (if dropped t > 0 then Printf.sprintf " (%d dropped)" (dropped t) else "");
  Format.pp_print_string ppf (Tabular.render (to_tree t));
  match decisions t with
  | [] -> ()
  | ds ->
      Format.fprintf ppf "decisions:@.";
      List.iter (fun d -> Format.fprintf ppf "  %a@." pp_decision d) ds
