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

let inversion = function
  | `Direction_aware -> Linear_model.min_workforce
  | `Paper_equality -> Linear_model.min_workforce_paper

(* Strategy [s]'s requirement for request [d]: [infinity] when [s] does
   not satisfy [d] or no workforce meets its thresholds. *)
let[@inline] requirement invert d s =
  if Deployment.satisfied_by d s then invert s.Strategy.model ~request:d.Deployment.params
  else infinity

let compute ?(rule = `Direction_aware) ~requests ~strategies () =
  let invert = inversion rule in
  let cell d s =
    let w = requirement invert d s in
    if w = infinity then Infeasible else Feasible w
  in
  matrix_of ~cell ~requests ~strategies

type request_requirement = { workforce : float; chosen : int list }

(* The scan's state: the k cheapest feasible (w, j) pairs offered so far,
   a max-heap over two flat k-slot arrays ordered by Float.compare on w,
   then by j, so slot 0 holds the costliest of them. *)
type cheapest = {
  ws : float array;
  js : int array;
  mutable size : int;
  mutable feasible : int;  (* pairs offered *)
}

let cheapest k = { ws = Array.create_float k; js = Array.make k 0; size = 0; feasible = 0 }

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

(* Offers one feasible pair, [j] above every index offered before. It
   stays while the heap has room, or when it is cheaper than the root,
   which it replaces; at an equal w the root's lower index wins. *)
let offer h w j =
  h.feasible <- h.feasible + 1;
  let k = Array.length h.ws in
  if h.size < k then begin
    h.ws.(h.size) <- w;
    h.js.(h.size) <- j;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)
  end
  else if Float.compare w h.ws.(0) < 0 then begin
    h.ws.(0) <- w;
    h.js.(0) <- j;
    sift_down h 0 k
  end

(* The aggregate of a finished scan: [None] below k feasible pairs. A
   heap sort puts the k pairs in ascending order, which the Sum-case
   adds from 0. and the Max-case takes the last of. *)
let aggregate h aggregation =
  let k = Array.length h.ws in
  if h.feasible < k then None
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
      match row.(j) with Feasible w -> offer h w j | Infeasible -> ()
    done;
    aggregate h aggregation
  end

let streaming_requirement ?(rule = `Direction_aware) aggregation ~k ~strategies d =
  if k < 1 then invalid_arg "Workforce.streaming_requirement: k must be >= 1";
  if k > Array.length strategies then None
  else begin
    let invert = inversion rule and h = cheapest k in
    for j = 0 to Array.length strategies - 1 do
      let w = requirement invert d strategies.(j) in
      if w <> infinity then offer h w j
    done;
    aggregate h aggregation
  end

let feasible_count t i =
  Array.fold_left
    (fun acc -> function Feasible _ -> acc + 1 | Infeasible -> acc)
    0 t.cells.(i)
