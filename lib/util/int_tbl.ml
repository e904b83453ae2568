(* Chained buckets, as in Stdlib's [Hashtbl], written out for int keys:
   [Hashtbl.Make] calls the hash and the key equality through its functor
   argument, so its [find] costs as much as the polymorphic one. Here
   both are inline. A key is bound at most once ([replace], no [add]), so
   rehashing may reverse a chain. Every recursive walk is a top-level
   function: without flambda, a local [let rec] capturing the key would
   be allocated on every call. *)

type 'a bucket =
  | Empty
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = { mutable size : int; mutable buckets : 'a bucket array }

let hash x = ((x lxor (x lsr 32)) * 0x2545F4914F6CDD1D) lsr 29

let create n =
  let rec pow2 x = if x >= n || x >= 1 lsl 20 then x else pow2 (2 * x) in
  { size = 0; buckets = Array.make (pow2 8) Empty }

let length t = t.size
let index t key = hash key land (Array.length t.buckets - 1)

let rec find_in key = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = key then c.data else find_in key c.next

let find t key = find_in key t.buckets.(index t key)

let rec find_opt_in key = function
  | Empty -> None
  | Cons c -> if c.key = key then Some c.data else find_opt_in key c.next

let find_opt t key = find_opt_in key t.buckets.(index t key)

let rec mem_in key = function
  | Empty -> false
  | Cons c -> c.key = key || mem_in key c.next

let mem t key = mem_in key t.buckets.(index t key)

let rec set_in key data = function
  | Empty -> false
  | Cons c ->
      if c.key = key then begin
        c.data <- data;
        true
      end
      else set_in key data c.next

let rec rehash buckets = function
  | Empty -> ()
  | Cons c as cell ->
      let next = c.next in
      let i = hash c.key land (Array.length buckets - 1) in
      c.next <- buckets.(i);
      buckets.(i) <- cell;
      rehash buckets next

let replace t key data =
  let i = index t key in
  if not (set_in key data t.buckets.(i)) then begin
    t.buckets.(i) <- Cons { key; data; next = t.buckets.(i) };
    t.size <- t.size + 1;
    (* at two bindings per bucket, double, as [Hashtbl] does *)
    if t.size > 2 * Array.length t.buckets then begin
      let old = t.buckets in
      t.buckets <- Array.make (2 * Array.length old) Empty;
      Array.iter (rehash t.buckets) old
    end
  end

let rec remove_in t i key prev = function
  | Empty -> ()
  | Cons c as cell ->
      if c.key = key then begin
        t.size <- t.size - 1;
        match prev with
        | Empty -> t.buckets.(i) <- c.next
        | Cons p -> p.next <- c.next
      end
      else remove_in t i key cell c.next

let remove t key =
  let i = index t key in
  remove_in t i key Empty t.buckets.(i)

let rec fold_in f acc = function
  | Empty -> acc
  | Cons c -> fold_in f (f c.key c.data acc) c.next

let fold f t init = Array.fold_left (fold_in f) init t.buckets
let iter f t = fold (fun key data () -> f key data) t ()

let stats t =
  let lengths = Array.map (fold_in (fun _ _ n -> n + 1) 0) t.buckets in
  let max_bucket_length = Array.fold_left max 0 lengths in
  let bucket_histogram = Array.make (max_bucket_length + 1) 0 in
  Array.iter (fun l -> bucket_histogram.(l) <- bucket_histogram.(l) + 1) lengths;
  {
    Hashtbl.num_bindings = Array.fold_left ( + ) 0 lengths;
    num_buckets = Array.length t.buckets;
    max_bucket_length;
    bucket_histogram;
  }
