(* A record whose fields are all floats is stored flat, so writing a
   field boxes nothing: the float moments of a histogram and a gauge's
   level live in such records. *)
type moments = { mutable sum : float; mutable min_v : float; mutable max_v : float }
type level = { mutable level : float }

type hstate = {
  bounds : float array;  (* ascending, finite; the +inf bucket is counts.(n) *)
  counts : int array;  (* length = Array.length bounds + 1 *)
  mutable count : int;
  moments : moments;
}

(* Series key: family name plus canonical labels. Structural hashing is
   what Hashtbl does by default, and both fields are plain strings. *)
type series = { s_name : string; s_labels : Labels.t }

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  clock : unit -> float;
  live : live option;
      (* None on a disabled registry, which keeps no table: {!noop} is
         process-global, and nothing reachable from every domain may be
         written. *)
}

and live = {
  families : family Names.t;
  counters : (series, int ref) Hashtbl.t;
  gauges : (series, level) Hashtbl.t;
  histograms : (series, hstate) Hashtbl.t;
}

(* Counter and gauge handles resolve their cell on the first update and
   keep it, so later updates skip the table. Resolution waits for an
   update because a handle alone must not add a series to snapshots. No
   series is ever removed or replaced, so a kept cell never goes stale. *)
and counter = {
  creg : t;
  cname : string;
  clabels : Labels.t;
  mutable ccell : int ref option;
}

and gauge = {
  greg : t;
  gname : string;
  glabels : Labels.t;
  mutable gcell : level option;
}

(* One entry per family name, recorded at its first lookup with any
   labels. Every label combination of one name carries the family's
   instrument kind — the exposition emits a single # TYPE per family,
   so a counter series and a gauge series under one name would lie to
   scrapers. The entry keeps the handle of the unlabeled series, so an
   unlabeled lookup after the first is one hash probe. *)
and family = Counters of counter | Gauges of gauge | Histograms of plain_histogram

(* The unlabeled histogram, [None] until it is registered. *)
and plain_histogram = { mutable plain : histogram }

(* Histogram registration is eager, so the handle holds its state from
   creation; [None] on a disabled registry. *)
and histogram = hstate option

let create ?(clock = Sys.time) () =
  {
    clock;
    live =
      Some
        {
          families = Names.create 32;
          counters = Hashtbl.create 32;
          gauges = Hashtbl.create 16;
          histograms = Hashtbl.create 16;
        };
  }

let disabled ?(clock = fun () -> 0.) () = { clock; live = None }
let noop = disabled ()
let enabled t = Option.is_some t.live
let now t = if enabled t then t.clock () else 0.

(* Monotone wall clock: gettimeofday guarded by a high-water mark, so an
   NTP step backwards can stall it but never make a span negative. The
   mark is process-global (domains share wall time) and updated with a
   CAS so concurrent readers stay monotone too. *)
let wall_mark = Atomic.make 0.

let wall_clock () =
  let now = Unix.gettimeofday () in
  let rec publish () =
    let last = Atomic.get wall_mark in
    if now <= last then last
    else if Atomic.compare_and_set wall_mark last now then now
    else publish ()
  in
  publish ()

let duration_buckets = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. |]
let fraction_buckets = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 |]

let kind_error name got =
  invalid_arg
    (Printf.sprintf "Stratrec_obs.Registry: %s already registered as a %s" name got)

let family_kind = function
  | Counters _ -> "counter"
  | Gauges _ -> "gauge"
  | Histograms _ -> "histogram"

(* The family of [name] is recorded at its first lookup, with labels or
   without, so a kind conflict surfaces at registration, not at first
   use. A lookup of another kind raises. *)
let plain_counter t live name =
  match Names.find live.families name with
  | Counters c -> c
  | (Gauges _ | Histograms _) as f -> kind_error name (family_kind f)
  | exception Not_found ->
      let c = { creg = t; cname = name; clabels = Labels.empty; ccell = None } in
      Names.add live.families name (Counters c);
      c

let plain_gauge t live name =
  match Names.find live.families name with
  | Gauges g -> g
  | (Counters _ | Histograms _) as f -> kind_error name (family_kind f)
  | exception Not_found ->
      let g = { greg = t; gname = name; glabels = Labels.empty; gcell = None } in
      Names.add live.families name (Gauges g);
      g

let histogram_family live name =
  match Names.find live.families name with
  | Histograms h -> h
  | (Counters _ | Gauges _) as f -> kind_error name (family_kind f)
  | exception Not_found ->
      let h = { plain = None } in
      Names.add live.families name (Histograms h);
      h

(* What every lookup on a disabled registry returns. A handle of a
   registry without a table never resolves a cell, so these are never
   written, and sharing them across domains is safe. *)
let idle_counter = { creg = noop; cname = ""; clabels = Labels.empty; ccell = None }
let idle_gauge = { greg = noop; gname = ""; glabels = Labels.empty; gcell = None }

let counter ?(labels = []) t name =
  match (t.live, labels) with
  | Some live, [] -> plain_counter t live name
  | Some live, _ ->
      let labels = Labels.normalize labels in
      ignore (plain_counter t live name);
      { creg = t; cname = name; clabels = labels; ccell = None }
  | None, _ ->
      ignore (Labels.normalize labels);
      idle_counter

let gauge ?(labels = []) t name =
  match (t.live, labels) with
  | Some live, [] -> plain_gauge t live name
  | Some live, _ ->
      let labels = Labels.normalize labels in
      ignore (plain_gauge t live name);
      { greg = t; gname = name; glabels = labels; gcell = None }
  | None, _ ->
      ignore (Labels.normalize labels);
      idle_gauge

(* The cell of [series] in [table], added as [fresh ()] when absent. *)
let series_cell table series ~fresh =
  match Hashtbl.find_opt table series with
  | Some cell -> cell
  | None ->
      let cell = fresh () in
      Hashtbl.add table series cell;
      cell

let counter_cell c =
  match (c.ccell, c.creg.live) with
  | (Some _ as cell), _ | (None as cell), None -> cell
  | None, Some live ->
      let series = { s_name = c.cname; s_labels = c.clabels } in
      c.ccell <- Some (series_cell live.counters series ~fresh:(fun () -> ref 0));
      c.ccell

let gauge_cell g =
  match (g.gcell, g.greg.live) with
  | (Some _ as cell), _ | (None as cell), None -> cell
  | None, Some live ->
      let series = { s_name = g.gname; s_labels = g.glabels } in
      g.gcell <- Some (series_cell live.gauges series ~fresh:(fun () -> { level = 0. }));
      g.gcell

let incr_by c by =
  if by < 0 then invalid_arg "Stratrec_obs.Registry.incr_by: negative increment";
  (* A zero increment still materializes the counter (at 0) so it shows
     up in snapshots. *)
  match counter_cell c with Some r -> r := !r + by | None -> ()

let incr c = incr_by c 1
let set g value = match gauge_cell g with Some cell -> cell.level <- value | None -> ()

let add g delta =
  match gauge_cell g with Some cell -> cell.level <- cell.level +. delta | None -> ()

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

(* Elementwise, by a loop: a closure here would cost every lookup. *)
let same_layout (bounds : float array) (buckets : float array) =
  let n = Array.length bounds in
  n = Array.length buckets
  &&
  let i = ref 0 in
  while !i < n && bounds.(!i) = buckets.(!i) do
    i := !i + 1
  done;
  !i = n

let bucket_layout_conflicts = "obs.bucket_layout_conflicts_total"

(* Every lookup but the hit below: validation, label normalisation, the
   kind check and the layout check, in that order. *)
let register_histogram buckets labels t name =
  validate_buckets buckets;
  let labels = Labels.normalize labels in
  match t.live with
  | None -> None
  | Some live -> (
      let family = histogram_family live name in
      let state =
        series_cell live.histograms { s_name = name; s_labels = labels } ~fresh:(fun () ->
            {
              bounds = Array.copy buckets;
              counts = Array.make (Array.length buckets + 1) 0;
              count = 0;
              moments = { sum = 0.; min_v = 0.; max_v = 0. };
            })
      in
      (* A series registered earlier keeps its original layout, but a
         conflicting one is counted in the self-metric, not ignored. *)
      if not (same_layout state.bounds buckets) then incr (counter t bucket_layout_conflicts);
      match (labels, family.plain) with
      | [], (Some _ as kept) -> kept
      | [], None ->
          family.plain <- Some state;
          family.plain
      | _ :: _, _ -> Some state)

let histogram ?(buckets = duration_buckets) ?(labels = []) t name =
  match (t.live, labels) with
  | Some live, [] -> (
      match Names.find live.families name with
      | Histograms { plain = Some state as kept } when same_layout state.bounds buckets -> kept
      | _ -> register_histogram buckets labels t name
      | exception Not_found -> register_histogram buckets labels t name)
  | _ -> register_histogram buckets labels t name

(* First bound >= value; the +inf bucket is Array.length bounds. *)
let bucket_index (bounds : float array) (value : float) =
  let lo = ref 0 and hi = ref (Array.length bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if value <= bounds.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let observe h value =
  match h with
  | None -> ()
  | Some s ->
      let i = bucket_index s.bounds value in
      s.counts.(i) <- s.counts.(i) + 1;
      let m = s.moments in
      if s.count = 0 then begin
        m.min_v <- value;
        m.max_v <- value
      end
      else begin
        if value < m.min_v then m.min_v <- value;
        if value > m.max_v then m.max_v <- value
      end;
      s.count <- s.count + 1;
      m.sum <- m.sum +. value

let snapshot t =
  match t.live with
  | None -> []
  | Some live ->
      let entry { s_name; s_labels } value acc =
        { Snapshot.name = s_name; labels = s_labels; value } :: acc
      in
      let histogram h =
        Snapshot.Histogram
          {
            buckets =
              List.init (Array.length h.counts) (fun i ->
                  let bound = if i < Array.length h.bounds then h.bounds.(i) else infinity in
                  (bound, h.counts.(i)));
            count = h.count;
            sum = h.moments.sum;
            min = h.moments.min_v;
            max = h.moments.max_v;
          }
      in
      []
      |> Hashtbl.fold (fun s r acc -> entry s (Snapshot.Counter !r) acc) live.counters
      |> Hashtbl.fold (fun s g acc -> entry s (Snapshot.Gauge g.level) acc) live.gauges
      |> Hashtbl.fold (fun s h acc -> entry s (histogram h) acc) live.histograms
      |> List.sort (fun a b ->
             Snapshot.compare_series
               (a.Snapshot.name, a.Snapshot.labels)
               (b.Snapshot.name, b.Snapshot.labels))
