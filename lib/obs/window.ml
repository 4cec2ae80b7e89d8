(* Ring-buffer sliding window. Each slot holds the histogram state of
   one sub-interval of the window; rotation is lazy (a slot is reset the
   first time an observation or read lands after its interval expired),
   keyed by the absolute interval index so an idle window needs no
   timer. *)

(* All floats, so stored flat: an observation boxes nothing. *)
type moments = { mutable sum : float; mutable min_v : float; mutable max_v : float }

type slot = {
  mutable epoch : int;
      (* absolute interval index this slot's contents belong to; -1 for
         never-used *)
  mutable count : int;
  moments : moments;
  counts : int array; (* per-bucket, Array.length bounds + 1 for +inf *)
}

type t = {
  clock : unit -> float;
  window_seconds : float;
  slot_seconds : float;
  bounds : float array;
  slots : slot array;
  metrics : Registry.t;
  mutable started_at : float option;
      (* clock reading of the first observation since creation/reset —
         the live-span origin for the early-rate clamp *)
  mutable clock_regressions : int;
}

let fresh_slot n_buckets =
  {
    epoch = -1;
    count = 0;
    moments = { sum = 0.; min_v = 0.; max_v = 0. };
    counts = Array.make n_buckets 0;
  }

let reset_slot s =
  s.epoch <- -1;
  s.count <- 0;
  s.moments.sum <- 0.;
  s.moments.min_v <- 0.;
  s.moments.max_v <- 0.;
  Array.fill s.counts 0 (Array.length s.counts) 0

let validate_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "Stratrec_obs.Window.create: empty bucket layout";
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then
        invalid_arg "Stratrec_obs.Window.create: non-finite bucket bound";
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Stratrec_obs.Window.create: bucket bounds must ascend")
    bounds

let create ?(clock = Registry.wall_clock) ?(metrics = Registry.noop) ?(slots = 12)
    ?(bounds = Registry.duration_buckets) ~window_seconds () =
  if not (Float.is_finite window_seconds && window_seconds > 0.) then
    invalid_arg "Stratrec_obs.Window.create: window_seconds must be positive";
  if slots < 1 then invalid_arg "Stratrec_obs.Window.create: need at least one slot";
  validate_bounds bounds;
  let bounds = Array.copy bounds in
  {
    clock;
    window_seconds;
    slot_seconds = window_seconds /. float_of_int slots;
    bounds;
    slots = Array.init slots (fun _ -> fresh_slot (Array.length bounds + 1));
    metrics;
    started_at = None;
    clock_regressions = 0;
  }

let window_seconds t = t.window_seconds
let slots t = Array.length t.slots

(* Absolute interval index of the current clock reading. Clamped at 0 so
   a clock that starts below zero cannot collide with the -1 sentinel. *)
let interval t =
  let now = t.clock () in
  if now <= 0. then 0 else int_of_float (now /. t.slot_seconds)

let observe t value =
  let now = t.clock () in
  let idx =
    if now <= 0. then 0 else int_of_float (now /. t.slot_seconds)
  in
  (match t.started_at with
  | None -> t.started_at <- Some now
  | Some started -> if now < started then t.started_at <- Some now);
  let s = t.slots.(idx mod Array.length t.slots) in
  if idx > s.epoch then begin
    reset_slot s;
    s.epoch <- idx
  end
  else if idx < s.epoch && s.epoch >= 0 then begin
    (* The clock stepped backwards across a slot boundary: the slot it
       lands on holds *live* data from a later interval. Resetting here
       (the old [epoch <> idx] rule) silently wiped that slot; instead
       keep it, record into it, and surface the regression — the same
       convention [Span.finish] uses for [trace.clock_regressions_total]. *)
    t.clock_regressions <- t.clock_regressions + 1;
    Registry.incr (Registry.counter t.metrics "obs.window.clock_regressions_total")
  end;
  let i = Registry.bucket_index t.bounds value in
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

let mark t = observe t 0.

(* Fold [f] over the slots still inside the window at the current clock
   reading; expired slots are skipped (and left for [observe] to recycle
   in place). *)
let fold_live t ~init ~f =
  let idx = interval t in
  let n = Array.length t.slots in
  Array.fold_left (fun acc s -> if s.epoch >= 0 && s.epoch > idx - n then f acc s else acc) init
    t.slots

let count t = fold_live t ~init:0 ~f:(fun acc s -> acc + s.count)
let sum t = fold_live t ~init:0. ~f:(fun acc s -> acc +. s.moments.sum)

(* Rate denominator: the span the window has actually been alive,
   clamped into [slot_seconds, window_seconds]. Dividing by the full
   window before it has been alive that long under-reports early rates
   (daemon startup skews SLO burn and brownout p99 inputs); the
   slot_seconds floor keeps the first instants from exploding the
   estimate off one sample. *)
let live_span t =
  match t.started_at with
  | None -> t.window_seconds
  | Some started ->
      let alive = t.clock () -. started in
      Float.min t.window_seconds (Float.max t.slot_seconds alive)

let rate_per_sec t = float_of_int (count t) /. live_span t

let mean t =
  let c = count t in
  if c = 0 then 0. else sum t /. float_of_int c

let min_value t =
  fold_live t ~init:nan ~f:(fun acc s ->
      if s.count = 0 then acc
      else if Float.is_nan acc || s.moments.min_v < acc then s.moments.min_v
      else acc)
  |> fun v -> if Float.is_nan v then 0. else v

let max_value t =
  fold_live t ~init:nan ~f:(fun acc s ->
      if s.count = 0 then acc
      else if Float.is_nan acc || s.moments.max_v > acc then s.moments.max_v
      else acc)
  |> fun v -> if Float.is_nan v then 0. else v

let to_histogram t =
  let n_counts = Array.length t.bounds + 1 in
  let totals = Array.make n_counts 0 in
  let count, sum =
    fold_live t ~init:(0, 0.) ~f:(fun (c, s) slot ->
        Array.iteri (fun i k -> totals.(i) <- totals.(i) + k) slot.counts;
        (c + slot.count, s +. slot.moments.sum))
  in
  let buckets =
    List.init n_counts (fun i ->
        let bound = if i < Array.length t.bounds then t.bounds.(i) else infinity in
        (bound, totals.(i)))
  in
  { Snapshot.buckets; count; sum; min = min_value t; max = max_value t }

let quantile t q = Snapshot.histogram_quantile (to_histogram t) q

let reset t =
  Array.iter reset_slot t.slots;
  t.started_at <- None

let clock_regressions t = t.clock_regressions

let export ?(labels = []) ?(rate_only = false) t registry ~name =
  if Registry.enabled registry then begin
    let h = to_histogram t in
    let set suffix value =
      Registry.set (Registry.gauge ~labels registry (name ^ suffix)) value
    in
    set ".window.count" (float_of_int h.Snapshot.count);
    set ".window.rate_per_sec" (float_of_int h.Snapshot.count /. live_span t);
    (* rate_only: for pure event-rate windows (observations are marks,
       not measurements) the value-axis gauges would expose meaningless
       zeros under a _seconds-style shape. *)
    if not rate_only then begin
      set ".window.mean"
        (if h.Snapshot.count = 0 then 0.
         else h.Snapshot.sum /. float_of_int h.Snapshot.count);
      set ".window.max" h.Snapshot.max;
      set ".window.p50" (Snapshot.histogram_quantile h 0.5);
      set ".window.p90" (Snapshot.histogram_quantile h 0.9);
      set ".window.p99" (Snapshot.histogram_quantile h 0.99)
    end
  end
