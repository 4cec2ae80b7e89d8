type 'a node =
  | Leaf of (Point3.t * 'a) list
  | Internal of (Box3.t * 'a node) list

type 'a t = { max_entries : int; min_entries : int; root : 'a node option; size : int }

let empty ?(max_entries = 8) () =
  if max_entries < 4 then invalid_arg "Rtree.empty: max_entries must be >= 4";
  { max_entries; min_entries = max 2 (max_entries / 3); root = None; size = 0 }

let size t = t.size

let node_mbb = function
  | Leaf [] -> invalid_arg "Rtree: empty leaf has no MBB"
  | Leaf ((p, _) :: rest) ->
      List.fold_left (fun box (q, _) -> Box3.union_point box q) (Box3.of_point p) rest
  | Internal [] -> invalid_arg "Rtree: empty internal node has no MBB"
  | Internal ((box, _) :: rest) -> List.fold_left (fun acc (b, _) -> Box3.union acc b) box rest

(* Quadratic split: pick the pair of seeds wasting the most volume, then
   assign each remaining entry to the group whose MBB grows least. *)
let quadratic_split ~min_entries boxes =
  let arr = Array.of_list boxes in
  let n = Array.length arr in
  let worst = ref (0, 1) and worst_waste = ref neg_infinity in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let bi, _ = arr.(i) and bj, _ = arr.(j) in
      let waste = Box3.volume (Box3.union bi bj) -. Box3.volume bi -. Box3.volume bj in
      if waste > !worst_waste then begin
        worst_waste := waste;
        worst := (i, j)
      end
    done
  done;
  let seed_a, seed_b = !worst in
  let group_a = ref [ arr.(seed_a) ] and group_b = ref [ arr.(seed_b) ] in
  let mbb_a = ref (fst arr.(seed_a)) and mbb_b = ref (fst arr.(seed_b)) in
  let remaining = ref [] in
  for i = n - 1 downto 0 do
    if i <> seed_a && i <> seed_b then remaining := arr.(i) :: !remaining
  done;
  let assign_to_a entry =
    group_a := entry :: !group_a;
    mbb_a := Box3.union !mbb_a (fst entry)
  in
  let assign_to_b entry =
    group_b := entry :: !group_b;
    mbb_b := Box3.union !mbb_b (fst entry)
  in
  let rec distribute = function
    | [] -> ()
    | rest when List.length !group_a + List.length rest = min_entries ->
        List.iter assign_to_a rest
    | rest when List.length !group_b + List.length rest = min_entries ->
        List.iter assign_to_b rest
    | entry :: rest ->
        let grow_a = Box3.enlargement !mbb_a (fst entry) in
        let grow_b = Box3.enlargement !mbb_b (fst entry) in
        if
          grow_a < grow_b
          || (grow_a = grow_b && Box3.volume !mbb_a <= Box3.volume !mbb_b)
        then assign_to_a entry
        else assign_to_b entry;
        distribute rest
  in
  distribute !remaining;
  (!group_a, !group_b)

(* Returns either the updated node or the two nodes resulting from a split. *)
let rec insert_node ~max_entries ~min_entries node point value =
  match node with
  | Leaf entries ->
      let entries = (point, value) :: entries in
      if List.length entries <= max_entries then `One (Leaf entries)
      else begin
        let boxed = List.map (fun (p, v) -> (Box3.of_point p, (p, v))) entries in
        let group_a, group_b = quadratic_split ~min_entries boxed in
        `Two (Leaf (List.map snd group_a), Leaf (List.map snd group_b))
      end
  | Internal children ->
      let point_box = Box3.of_point point in
      (* Choose the child needing least enlargement (ties: smallest volume). *)
      let best_index, _ =
        List.fold_left
          (fun (best, i) (box, _) ->
            let cost = (Box3.enlargement box point_box, Box3.volume box) in
            let best =
              match best with
              | None -> Some (i, cost)
              | Some (_, best_cost) when cost < best_cost -> Some (i, cost)
              | Some _ as kept -> kept
            in
            (best, i + 1))
          (None, 0) children
        |> fun (best, _) ->
        match best with Some (i, c) -> (i, c) | None -> invalid_arg "Rtree: empty internal node"
      in
      let children =
        List.mapi
          (fun i (box, child) ->
            if i <> best_index then [ (box, child) ]
            else
              match insert_node ~max_entries ~min_entries child point value with
              | `One child -> [ (node_mbb child, child) ]
              | `Two (left, right) -> [ (node_mbb left, left); (node_mbb right, right) ])
          children
        |> List.concat
      in
      if List.length children <= max_entries then `One (Internal children)
      else begin
        let boxed = List.map (fun (box, child) -> (box, (box, child))) children in
        let group_a, group_b = quadratic_split ~min_entries boxed in
        `Two (Internal (List.map snd group_a), Internal (List.map snd group_b))
      end

let insert t point value =
  let root =
    match t.root with
    | None -> Leaf [ (point, value) ]
    | Some root -> (
        match insert_node ~max_entries:t.max_entries ~min_entries:t.min_entries root point value with
        | `One node -> node
        | `Two (left, right) ->
            Internal [ (node_mbb left, left); (node_mbb right, right) ])
  in
  { t with root = Some root; size = t.size + 1 }

let bulk_load ?(max_entries = 8) entries =
  if max_entries < 4 then invalid_arg "Rtree.bulk_load: max_entries must be >= 4";
  let min_entries = max 2 (max_entries / 3) in
  let chunk size lst =
    let rec go acc current count = function
      | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
      | x :: rest ->
          if count = size then go (List.rev current :: acc) [ x ] 1 rest
          else go acc (x :: current) (count + 1) rest
    in
    go [] [] 0 lst
  in
  match entries with
  | [] -> { max_entries; min_entries; root = None; size = 0 }
  | entries ->
      let n = List.length entries in
      (* STR: tile along x into vertical slabs, then each slab along y, then
         pack leaves of max_entries points sorted by z. *)
      let leaves_needed = (n + max_entries - 1) / max_entries in
      let slab_count =
        int_of_float (Float.ceil (Float.cbrt (float_of_int leaves_needed))) |> max 1
      in
      let coord axis (p, _) = Point3.coord p axis in
      let sorted_x = List.sort (fun a b -> Float.compare (coord 0 a) (coord 0 b)) entries in
      let slab_size = (n + slab_count - 1) / slab_count in
      let slabs = chunk slab_size sorted_x in
      let leaves =
        List.concat_map
          (fun slab ->
            let m = List.length slab in
            let strip_count =
              int_of_float
                (Float.ceil (sqrt (float_of_int ((m + max_entries - 1) / max_entries))))
              |> max 1
            in
            let sorted_y = List.sort (fun a b -> Float.compare (coord 1 a) (coord 1 b)) slab in
            let strip_size = (m + strip_count - 1) / strip_count in
            List.concat_map
              (fun strip ->
                let sorted_z =
                  List.sort (fun a b -> Float.compare (coord 2 a) (coord 2 b)) strip
                in
                List.map (fun leaf_entries -> Leaf leaf_entries) (chunk max_entries sorted_z))
              (chunk strip_size sorted_y))
          slabs
      in
      (* Pack upward until a single root remains. A trailing group of one
         child would violate the internal-fanout invariant, so rebalance the
         last two groups in that case. *)
      let rebalance groups =
        let rec go = function
          | [ prev; [ lone ] ] -> (
              match List.rev prev with
              | moved :: rest -> [ List.rev rest; [ moved; lone ] ]
              | [] -> [ [ lone ] ])
          | g :: rest -> g :: go rest
          | [] -> []
        in
        go groups
      in
      let rec pack nodes =
        match nodes with
        | [ root ] -> root
        | nodes ->
            let parents =
              List.map
                (fun group -> Internal (List.map (fun child -> (node_mbb child, child)) group))
                (rebalance (chunk max_entries nodes))
            in
            pack parents
      in
      { max_entries; min_entries; root = Some (pack leaves); size = n }

let search t box =
  let rec go acc = function
    | Leaf entries ->
        List.fold_left
          (fun acc (p, v) -> if Box3.contains_point box p then (p, v) :: acc else acc)
          acc entries
    | Internal children ->
        List.fold_left
          (fun acc (child_box, child) ->
            if Box3.intersects box child_box then go acc child else acc)
          acc children
  in
  match t.root with None -> [] | Some root -> go [] root

let rec node_count = function
  | Leaf entries -> List.length entries
  | Internal children -> List.fold_left (fun acc (_, child) -> acc + node_count child) 0 children

let nodes t =
  let rec go acc node =
    let acc = (node_mbb node, node_count node) :: acc in
    match node with
    | Leaf _ -> acc
    | Internal children -> List.fold_left (fun acc (_, child) -> go acc child) acc children
  in
  match t.root with None -> [] | Some root -> List.rev (go [] root)

let check_invariants t =
  let ( let* ) = Result.bind in
  match t.root with
  | None -> if t.size = 0 then Ok () else Error "empty root but non-zero size"
  | Some root ->
      let rec check ~is_root depth node =
        match node with
        | Leaf entries ->
            let n = List.length entries in
            if n = 0 && not is_root then Error "empty non-root leaf"
            else if n > t.max_entries then Error "leaf overflow"
            else Ok depth
        | Internal children ->
            let n = List.length children in
            if n > t.max_entries then Error "internal overflow"
            else if n < 2 then Error "internal underflow"
            else
              List.fold_left
                (fun acc (box, child) ->
                  let* prev = acc in
                  let* () =
                    if Box3.equal box (node_mbb child) then Ok ()
                    else Error "stored MBB differs from computed MBB"
                  in
                  let* d = check ~is_root:false (depth + 1) child in
                  match prev with
                  | None -> Ok (Some d)
                  | Some d' when d = d' -> Ok prev
                  | Some _ -> Error "leaves at different depths")
                (Ok None) children
              |> Result.map (fun d -> Option.value d ~default:depth)
      in
      let* _ = check ~is_root:true 0 root in
      if node_count root = t.size then Ok () else Error "size mismatch"
