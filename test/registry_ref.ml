(* The registry lookups the library ran before one table per registry
   kept each family's unlabeled handle: every [counter], [gauge] and
   [histogram] call normalised its labels, checked the family's kind in
   a [kinds] table and allocated a fresh handle, and a histogram lookup
   re-validated its layout. Kept as the oracle test_obs replays random
   lookups and updates against: snapshots and [Invalid_argument]
   messages must match. *)

module Labels = Stratrec_obs.Labels
module Snapshot = Stratrec_obs.Snapshot

type hstate = {
  bounds : float array;  (* ascending, finite; the +inf bucket is counts.(n) *)
  counts : int array;  (* length = Array.length bounds + 1 *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type instrument = C of int ref | G of float ref | H of hstate

(* Series key: family name plus canonical labels. Structural hashing is
   what Hashtbl does by default, and both fields are plain strings. *)
type series = { s_name : string; s_labels : Labels.t }

type t = {
  enabled : bool;
  clock : unit -> float;
  table : (series, instrument) Hashtbl.t;
  (* One instrument kind per family, across every label combination —
     the exposition emits a single # TYPE per family, so a counter
     series and a gauge series under one name would lie to scrapers. *)
  kinds : (string, string) Hashtbl.t;
}

(* Counter and gauge handles resolve their cell on the first update and
   keep it, so later updates skip the table. Resolution waits for an
   update because a handle alone must not add a series to snapshots. No
   series is ever removed or replaced, so a kept cell never goes stale. *)
type counter = {
  creg : t;
  cname : string;
  clabels : Labels.t;
  mutable ccell : int ref option;
}

type gauge = {
  greg : t;
  gname : string;
  glabels : Labels.t;
  mutable gcell : float ref option;
}

(* Histogram registration is eager, so the handle holds its state from
   creation; [None] on a disabled registry. *)
type histogram = hstate option

let create ?(clock = Sys.time) () =
  { enabled = true; clock; table = Hashtbl.create 32; kinds = Hashtbl.create 32 }

let duration_buckets = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. |]
let fraction_buckets = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 |]

let kind_error name got =
  invalid_arg
    (Printf.sprintf "Stratrec_obs.Registry: %s already registered as a %s" name got)

let instrument_kind = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

(* Family-level kind check: every label combination of one name must
   carry the same instrument kind. Recorded on first sight (including on
   handle creation, so conflicts surface at registration, not first
   use). *)
let check_family t name kind =
  match Hashtbl.find_opt t.kinds name with
  | None -> Hashtbl.replace t.kinds name kind
  | Some k when String.equal k kind -> ()
  | Some k -> kind_error name k

let counter ?(labels = []) t name =
  let labels = Labels.normalize labels in
  check_family t name "counter";
  { creg = t; cname = name; clabels = labels; ccell = None }

let gauge ?(labels = []) t name =
  let labels = Labels.normalize labels in
  check_family t name "gauge";
  { greg = t; gname = name; glabels = labels; gcell = None }

let validate_buckets buckets =
  if Array.length buckets = 0 then
    invalid_arg "Stratrec_obs.Registry.histogram: empty bucket layout";
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then
        invalid_arg "Stratrec_obs.Registry.histogram: non-finite bucket bound";
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Stratrec_obs.Registry.histogram: bucket bounds must ascend")
    buckets

let counter_state t name labels =
  check_family t name "counter";
  let key = { s_name = name; s_labels = labels } in
  match Hashtbl.find_opt t.table key with
  | Some (C r) -> r
  | Some other -> kind_error (Labels.encode_series name labels) (instrument_kind other)
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.table key (C r);
      r

let gauge_state t name labels =
  check_family t name "gauge";
  let key = { s_name = name; s_labels = labels } in
  match Hashtbl.find_opt t.table key with
  | Some (G r) -> r
  | Some other -> kind_error (Labels.encode_series name labels) (instrument_kind other)
  | None ->
      let r = ref 0. in
      Hashtbl.replace t.table key (G r);
      r

let histogram_state t name labels buckets =
  check_family t name "histogram";
  let key = { s_name = name; s_labels = labels } in
  match Hashtbl.find_opt t.table key with
  | Some (H h) -> h
  | Some other -> kind_error (Labels.encode_series name labels) (instrument_kind other)
  | None ->
      let h =
        {
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          count = 0;
          sum = 0.;
          min_v = 0.;
          max_v = 0.;
        }
      in
      Hashtbl.replace t.table key (H h);
      h

let bucket_layout_conflicts = "obs.bucket_layout_conflicts_total"

let histogram ?(buckets = duration_buckets) ?(labels = []) t name =
  validate_buckets buckets;
  let labels = Labels.normalize labels in
  if not t.enabled then None
  else begin
    check_family t name "histogram";
    match Hashtbl.find_opt t.table { s_name = name; s_labels = labels } with
    | None ->
        (* Materialize eagerly so a later registration under the same
           series can be checked against this layout. *)
        Some (histogram_state t name labels buckets)
    | Some (H h) ->
        if
          Array.length h.bounds <> Array.length buckets
          || not (Array.for_all2 Float.equal h.bounds buckets)
        then begin
          (* Keep the original layout, but don't stay silent about it:
             count the conflict in the self-metric. *)
          let r = counter_state t bucket_layout_conflicts [] in
          r := !r + 1
        end;
        Some h
    | Some other -> kind_error (Labels.encode_series name labels) (instrument_kind other)
  end

let counter_cell c =
  match c.ccell with
  | Some r -> r
  | None ->
      let r = counter_state c.creg c.cname c.clabels in
      c.ccell <- Some r;
      r

let gauge_cell g =
  match g.gcell with
  | Some r -> r
  | None ->
      let r = gauge_state g.greg g.gname g.glabels in
      g.gcell <- Some r;
      r

let incr_by c by =
  if by < 0 then invalid_arg "Stratrec_obs.Registry.incr_by: negative increment";
  if c.creg.enabled then begin
    (* A zero increment still materializes the counter (at 0) so it shows
       up in snapshots. *)
    let r = counter_cell c in
    r := !r + by
  end

let incr c = incr_by c 1
let set g value = if g.greg.enabled then gauge_cell g := value

let add g delta =
  if g.greg.enabled then begin
    let r = gauge_cell g in
    r := !r +. delta
  end

let bucket_index bounds value =
  (* First bound >= value; the +inf bucket is Array.length bounds. *)
  let n = Array.length bounds in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if value <= bounds.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe h value =
  match h with
  | None -> ()
  | Some s ->
      let i = bucket_index s.bounds value in
      s.counts.(i) <- s.counts.(i) + 1;
      if s.count = 0 then begin
        s.min_v <- value;
        s.max_v <- value
      end
      else begin
        if value < s.min_v then s.min_v <- value;
        if value > s.max_v then s.max_v <- value
      end;
      s.count <- s.count + 1;
      s.sum <- s.sum +. value

let snapshot t =
  Hashtbl.fold
    (fun { s_name; s_labels } instrument acc ->
      let value =
        match instrument with
        | C r -> Snapshot.Counter !r
        | G r -> Snapshot.Gauge !r
        | H h ->
            let buckets =
              List.init
                (Array.length h.counts)
                (fun i ->
                  let bound =
                    if i < Array.length h.bounds then h.bounds.(i) else infinity
                  in
                  (bound, h.counts.(i)))
            in
            Snapshot.Histogram
              { buckets; count = h.count; sum = h.sum; min = h.min_v; max = h.max_v }
      in
      { Snapshot.name = s_name; labels = s_labels; value } :: acc)
    t.table []
  |> List.sort (fun a b ->
         Snapshot.compare_series
           (a.Snapshot.name, a.Snapshot.labels)
           (b.Snapshot.name, b.Snapshot.labels))
