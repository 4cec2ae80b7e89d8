type aggregation = Sum_case | Max_case
type cell = Infeasible | Feasible of float

type matrix = {
  requests : Deployment.t array;
  strategies : Strategy.t array;
  cells : cell array array;
}

let matrix_of ~cell ~requests ~strategies =
  { requests; strategies; cells = Array.map (fun d -> Array.map (cell d) strategies) requests }

let compute_with ~requirement ~requests ~strategies =
  let cell d s = match requirement d s with Some w -> Feasible w | None -> Infeasible in
  matrix_of ~cell ~requests ~strategies

(* The inversions and the satisfaction test are straight-line float code
   over a request's three thresholds and a strategy's params and six
   coefficients. The scan below inlines them, so a strategy costs it no
   call and no float box. [infinity] stands for infeasible. *)

let[@inline] satisfies (p : Params.t) (r : Params.t) =
  p.quality >= r.quality && p.cost <= r.cost && p.latency <= r.latency

(* Quality must reach its threshold, cost and latency must stay under
   theirs. An axis whose response approaches its threshold as w grows
   raises the floor (quality with alpha > 0, cost and latency with
   alpha < 0); one that moves away lowers the cap; a constant axis
   (alpha = 0.) meets its threshold outright or never. The floor starts
   at 0. and the cap at 1.; a floor above the cap by more than 1e-9 is
   infeasible, and within it the smaller of the two is the answer, so a
   feasible requirement lies in [-1e-9, 1] (see workforce.mli). *)
let[@inline] min_workforce (m : Linear_model.t) (r : Params.t) =
  let q = m.quality and c = m.cost and l = m.latency in
  if
    (q.alpha = 0. && not (q.beta >= r.quality))
    || (c.alpha = 0. && not (c.beta <= r.cost))
    || (l.alpha = 0. && not (l.beta <= r.latency))
  then infinity
  else
    let lower = if q.alpha > 0. then Float.max 0. ((r.quality -. q.beta) /. q.alpha) else 0. in
    let lower = if c.alpha < 0. then Float.max lower ((r.cost -. c.beta) /. c.alpha) else lower in
    let lower =
      if l.alpha < 0. then Float.max lower ((r.latency -. l.beta) /. l.alpha) else lower
    in
    let upper = if q.alpha >= 0. then 1. else Float.min 1. ((r.quality -. q.beta) /. q.alpha) in
    let upper = if c.alpha <= 0. then upper else Float.min upper ((r.cost -. c.beta) /. c.alpha) in
    let upper =
      if l.alpha <= 0. then upper else Float.min upper ((r.latency -. l.beta) /. l.alpha)
    in
    (* Equality boundaries (a cap meeting the floor) are legitimate and
       common in calibrated models; tolerate float drift there. *)
    if lower <= upper +. 1e-9 then Float.min lower upper else infinity

(* Whether [min_workforce m r] can be negative: its floor is at least
   0., so only a cap below 0. makes it so, and a cap is (t - beta) /.
   alpha on an axis that lowers it, negative only when the computed
   t - beta has the sign opposite to alpha. No division here. *)
let[@inline] may_be_negative (m : Linear_model.t) (r : Params.t) =
  let q = m.quality and c = m.cost and l = m.latency in
  (q.alpha < 0. && r.quality -. q.beta > 0.)
  || (c.alpha > 0. && r.cost -. c.beta < 0.)
  || (l.alpha > 0. && r.latency -. l.beta < 0.)

(* The paper's rule: each axis solved at equality, [infinity] when it
   has no solution or one above 1; the max starts at 0., which clamps
   negative solutions to 0. *)
let[@inline] min_workforce_paper (m : Linear_model.t) (r : Params.t) =
  let q = m.quality and c = m.cost and l = m.latency in
  let wq =
    if q.alpha = 0. then if q.beta = r.quality then 0. else infinity
    else (r.quality -. q.beta) /. q.alpha
  in
  if wq > 1. then infinity
  else
    let wc =
      if c.alpha = 0. then if c.beta = r.cost then 0. else infinity
      else (r.cost -. c.beta) /. c.alpha
    in
    if wc > 1. then infinity
    else
      let wl =
        if l.alpha = 0. then if l.beta = r.latency then 0. else infinity
        else (r.latency -. l.beta) /. l.alpha
      in
      if wl > 1. then infinity else Float.max (Float.max (Float.max 0. wq) wc) wl

let feasible w = if w = infinity then None else Some w
let workforce_requirement m ~request = feasible (min_workforce m request)
let workforce_requirement_paper m ~request = feasible (min_workforce_paper m request)

(* Strategy [s]'s requirement for thresholds [r]: [infinity] when [s]'s
   estimated parameters do not satisfy [r] or no workforce meets them. *)
let[@inline] requirement ~paper (s : Strategy.t) r =
  if not (satisfies s.params r) then infinity
  else if paper then min_workforce_paper s.model r
  else min_workforce s.model r

let is_paper = function `Paper_equality -> true | `Direction_aware -> false

let compute ?(rule = `Direction_aware) ~requests ~strategies () =
  let paper = is_paper rule in
  let cell d s =
    let w = requirement ~paper s d.Deployment.params in
    if w = infinity then Infeasible else Feasible w
  in
  matrix_of ~cell ~requests ~strategies

type request_requirement = { workforce : float; chosen : int list }

(* The scan's state: the k cheapest feasible (w, j) pairs offered so far,
   a max-heap over two flat k-slot arrays ordered by Float.compare on w,
   then by j, so slot 0 holds the costliest of them. *)
type cheapest = { ws : float array; js : int array; mutable size : int }

let cheapest k = { ws = Array.create_float k; js = Array.make k 0; size = 0 }

let costlier h a b =
  let c = Float.compare h.ws.(a) h.ws.(b) in
  c > 0 || (c = 0 && h.js.(a) > h.js.(b))

let swap h a b =
  let w = h.ws.(a) and j = h.js.(a) in
  h.ws.(a) <- h.ws.(b);
  h.js.(a) <- h.js.(b);
  h.ws.(b) <- w;
  h.js.(b) <- j

let sift_up h pos =
  let pos = ref pos in
  while !pos > 0 && costlier h !pos ((!pos - 1) / 2) do
    swap h !pos ((!pos - 1) / 2);
    pos := (!pos - 1) / 2
  done

(* Restores the heap order of slots [0, size) below [pos]. *)
let sift_down h pos size =
  let pos = ref pos and sifting = ref true in
  while !sifting do
    let left = (2 * !pos) + 1 in
    let child = if left + 1 < size && costlier h (left + 1) left then left + 1 else left in
    if child < size && costlier h child !pos then begin
      swap h child !pos;
      pos := child
    end
    else sifting := false
  done

(* Whether a feasible pair (w, j), [j] above every index offered before,
   stays: while the heap has room, or when it is cheaper than the root;
   at an equal w the root's lower index wins. *)
let[@inline] enters h w = h.size < Array.length h.ws || Float.compare w h.ws.(0) < 0

(* Puts a pair that [enters] into a free slot, or in place of the root. *)
let[@inline] offer h w j =
  let k = Array.length h.ws in
  if h.size < k then begin
    h.ws.(h.size) <- w;
    h.js.(h.size) <- j;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)
  end
  else begin
    h.ws.(0) <- w;
    h.js.(0) <- j;
    sift_down h 0 k
  end

(* The aggregate of a finished scan: [None] below k feasible pairs. A
   heap sort puts the k pairs in ascending order, which the Sum-case
   adds from 0. and the Max-case takes the last of. *)
let aggregate h aggregation =
  let k = Array.length h.ws in
  if h.size < k then None
  else begin
    for last = k - 1 downto 1 do
      swap h 0 last;
      sift_down h 0 last
    done;
    let workforce =
      match aggregation with
      | Sum_case ->
          let sum = ref 0. in
          for i = 0 to k - 1 do
            sum := !sum +. h.ws.(i)
          done;
          !sum
      | Max_case -> h.ws.(k - 1)
    in
    let chosen = ref [] in
    for i = k - 1 downto 0 do
      chosen := h.js.(i) :: !chosen
    done;
    Some { workforce; chosen = !chosen }
  end

(* k above the row width can never be met, and must not size the heap:
   k comes straight from the request. *)
let request_requirement t aggregation ~k i =
  if k < 1 then invalid_arg "Workforce.request_requirement: k must be >= 1";
  let row = t.cells.(i) in
  if k > Array.length row then None
  else begin
    let h = cheapest k in
    for j = 0 to Array.length row - 1 do
      match row.(j) with Feasible w -> if enters h w then offer h w j | Infeasible -> ()
    done;
    aggregate h aggregation
  end

(* Once the heap is full and its root compares <= 0., a later pair
   enters only below the root, so only a negative requirement can: the
   direction-aware rule then skips every strategy that cannot have one
   (DESIGN §5, "Workforce inversion"). The root never rises, so the
   prune stays on once it starts. *)
let streaming_requirement ?(rule = `Direction_aware) aggregation ~k ~strategies d =
  if k < 1 then invalid_arg "Workforce.streaming_requirement: k must be >= 1";
  if k > Array.length strategies then None
  else begin
    let h = cheapest k and r = d.Deployment.params and paper = is_paper rule in
    let pruning = ref false in
    for j = 0 to Array.length strategies - 1 do
      let s = strategies.(j) in
      if (not !pruning) || may_be_negative s.Strategy.model r then begin
        let w = requirement ~paper s r in
        if w <> infinity && enters h w then begin
          offer h w j;
          pruning := (not paper) && h.size = k && Float.compare h.ws.(0) 0. <= 0
        end
      end
    done;
    aggregate h aggregation
  end

let feasible_count t i =
  Array.fold_left
    (fun acc -> function Feasible _ -> acc + 1 | Infeasible -> acc)
    0 t.cells.(i)
