(* The k-smallest selection the ADPaR and workforce oracles compare the
   library's flat heaps against, written as plainly as possible: a
   stable sort and a sorted list of at most k elements. test_kselect
   pins its behaviour. *)

(* The [k] smallest elements of [arr] in ascending order (all of them
   when [k >= length]); ties keep array order. Requires [k >= 0]. *)
let k_smallest ~cmp k arr =
  if k < 0 then invalid_arg "Kselect_ref.k_smallest: negative k";
  List.filteri (fun i _ -> i < k) (List.stable_sort cmp (Array.to_list arr))

(* The k-th smallest element (1-based), or [None] when [k < 1] or
   [k > length arr]. *)
let kth_smallest ~cmp k arr = if k < 1 then None else List.nth_opt (k_smallest ~cmp k arr) (k - 1)

(* Positions of the [k] smallest elements, in ascending element order;
   ties keep array order. *)
let k_smallest_indices ~cmp k arr =
  List.map fst (k_smallest ~cmp:(fun (_, a) (_, b) -> cmp a b) k (Array.mapi (fun i x -> (i, x)) arr))

(* Elements fed one at a time; [kth] is the k-th smallest so far, or
   [None] while fewer than [k] have been fed. *)
module Tracker = struct
  type 'a t = { cmp : 'a -> 'a -> int; k : int; mutable count : int; mutable smallest : 'a list }

  let create ~cmp k =
    if k < 1 then invalid_arg "Kselect_ref.Tracker.create: k must be >= 1";
    { cmp; k; count = 0; smallest = [] }

  let add t x =
    let rec insert = function
      | y :: rest when t.cmp y x <= 0 -> y :: insert rest
      | l -> x :: l
    in
    t.count <- t.count + 1;
    t.smallest <- List.filteri (fun i _ -> i < t.k) (insert t.smallest)

  let count t = t.count
  let kth t = List.nth_opt t.smallest (t.k - 1)

  (* The current k (or fewer) smallest elements, ascending. *)
  let contents t = t.smallest
end
