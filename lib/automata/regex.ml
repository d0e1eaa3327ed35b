type t =
  | Empty
  | Eps
  | Sym of Word.symbol
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

let empty = Empty

let eps = Eps

let sym a = Sym a

let seq r s =
  match r, s with
  | Empty, _ | _, Empty -> Empty
  | Eps, x | x, Eps -> x
  | _ -> Seq (r, s)

let alt r s =
  match r, s with
  | Empty, x | x, Empty -> x
  | Eps, Opt x | Opt x, Eps -> Opt x
  | _ -> if r = s then r else Alt (r, s)

let star = function
  | Empty | Eps -> Eps
  | Star _ as r -> r
  | Plus r -> Star r
  | Opt r -> Star r
  | r -> Star r

let plus = function
  | Empty -> Empty
  | Eps -> Eps
  | Star _ as r -> r
  | Plus _ as r -> r
  | Opt r -> Star r
  | r -> Plus r

let opt = function
  | Empty -> Eps
  | Eps -> Eps
  | (Star _ | Opt _) as r -> r
  | Plus r -> Star r
  | r -> Opt r

let seq_list rs = List.fold_left seq Eps rs

let alt_list rs = List.fold_left alt Empty rs

let word w = seq_list (List.map sym w)

let alt_words ws = alt_list (List.map word ws)

let rec nullable = function
  | Empty | Sym _ -> false
  | Eps | Star _ | Opt _ -> true
  | Seq (r, s) -> nullable r && nullable s
  | Alt (r, s) -> nullable r || nullable s
  | Plus r -> nullable r

let rec is_empty_lang = function
  | Empty -> true
  | Eps | Sym _ | Star _ | Opt _ -> false
  | Seq (r, s) -> is_empty_lang r || is_empty_lang s
  | Alt (r, s) -> is_empty_lang r && is_empty_lang s
  | Plus r -> is_empty_lang r

(* A Star/Plus node denotes a finite language only when its body denotes a
   language included in {ε}. *)
let rec denotes_at_most_eps = function
  | Empty | Eps -> true
  | Sym _ -> false
  | Seq (r, s) ->
    is_empty_lang r || is_empty_lang s
    || (denotes_at_most_eps r && denotes_at_most_eps s)
  | Alt (r, s) -> denotes_at_most_eps r && denotes_at_most_eps s
  | Star r | Plus r | Opt r -> is_empty_lang r || denotes_at_most_eps r

let rec is_finite = function
  | Empty | Eps | Sym _ -> true
  | Seq (r, s) ->
    is_empty_lang r || is_empty_lang s || (is_finite r && is_finite s)
  | Alt (r, s) -> is_finite r && is_finite s
  | Star r | Plus r -> is_empty_lang r || denotes_at_most_eps r
  | Opt r -> is_finite r

let alphabet r =
  let rec go acc = function
    | Empty | Eps -> acc
    | Sym a -> if List.mem a acc then acc else a :: acc
    | Seq (r, s) | Alt (r, s) -> go (go acc r) s
    | Star r | Plus r | Opt r -> go acc r
  in
  List.sort String.compare (go [] r)

let rec size = function
  | Empty | Eps | Sym _ -> 1
  | Seq (r, s) | Alt (r, s) -> 1 + size r + size s
  | Star r | Plus r | Opt r -> 1 + size r

let equal = Stdlib.( = )

let compare = Stdlib.compare

let rec derivative a = function
  | Empty | Eps -> Empty
  | Sym b -> if String.equal a b then Eps else Empty
  | Seq (r, s) ->
    let d = seq (derivative a r) s in
    if nullable r then alt d (derivative a s) else d
  | Alt (r, s) -> alt (derivative a r) (derivative a s)
  | Star r -> seq (derivative a r) (star r)
  | Plus r -> seq (derivative a r) (star r)
  | Opt r -> derivative a r

let matches r w =
  let r = List.fold_left (fun r a -> derivative a r) r w in
  nullable r

let rec reverse = function
  | (Empty | Eps | Sym _) as r -> r
  | Seq (r, s) -> Seq (reverse s, reverse r)
  | Alt (r, s) -> Alt (reverse r, reverse s)
  | Star r -> Star (reverse r)
  | Plus r -> Plus (reverse r)
  | Opt r -> Opt (reverse r)

let rec remove_eps = function
  | Empty -> Empty
  | Eps -> Empty
  | Sym _ as r -> r
  | Seq (r, s) as rs ->
    if not (nullable r || nullable s) then rs
    else begin
      (* L(r·s) \ ε = (L(r)\ε)·s ∪ [ε∈L(r)] (L(s)\ε) *)
      let left = seq (remove_eps r) s in
      if nullable r then alt left (remove_eps s) else left
    end
  | Alt (r, s) -> alt (remove_eps r) (remove_eps s)
  | Star r -> plus (remove_eps r)
  | Plus r as p -> if nullable r then plus (remove_eps r) else p
  | Opt r -> remove_eps r

module WordSet = Set.Make (struct
  type t = Word.t

  let compare = Word.compare
end)

(* Enumeration: recursive computation of word sets up to max_len.  The
   result sets are small in practice (expansion machinery uses small
   bounds), so the naive product is fine. *)
let enumerate_uncached ~max_len r =
  let prod u v =
    WordSet.fold
      (fun w1 acc ->
        Guard.checkpoint "regex.enumerate";
        WordSet.fold
          (fun w2 acc ->
            let w = w1 @ w2 in
            if List.length w <= max_len then WordSet.add w acc else acc)
          v acc)
      u WordSet.empty
  in
  let rec go r =
    match r with
    | Empty -> WordSet.empty
    | Eps -> WordSet.singleton []
    | Sym a -> if max_len >= 1 then WordSet.singleton [ a ] else WordSet.empty
    | Seq (r, s) -> prod (go r) (go s)
    | Alt (r, s) -> WordSet.union (go r) (go s)
    | Opt r -> WordSet.add [] (go r)
    | Star r -> iterate (go r)
    | Plus r ->
      let base = go r in
      prod base (iterate base)
  and iterate base =
    (* least fixpoint of S = {ε} ∪ base·S restricted to length ≤ max_len *)
    let rec fix acc =
      Guard.checkpoint "regex.enumerate";
      let next = WordSet.union acc (prod base acc) in
      if WordSet.cardinal next = WordSet.cardinal acc then acc else fix next
    in
    fix (WordSet.singleton [])
  in
  let cmp w1 w2 =
    let c = Stdlib.compare (List.length w1) (List.length w2) in
    if c <> 0 then c else Word.compare w1 w2
  in
  List.sort cmp (WordSet.elements (go r))

(* The expansion machinery re-enumerates the same (bound, language)
   pairs across disjuncts and containment directions; the memo keeps the
   word lists around.  The wrapper checkpoint reuses the legacy
   "regex.enumerate" site so cached calls still count towards budgets. *)
module Enum_memo = Cache.Memo (struct
  type nonrec t = int * t

  let equal = ( = )
  let hash = Hashtbl.hash
end)

let enum_memo = Enum_memo.create ~cap:512 ~site:"regex.enumerate" "regex.enumerate"

let enumerate ~max_len r =
  if max_len < 0 then []
  else
    Enum_memo.find_or_add enum_memo (max_len, r) (fun () ->
        enumerate_uncached ~max_len r)

let words_of_finite r =
  if not (is_finite r) then
    invalid_arg "Regex.words_of_finite: infinite language";
  (* For a finite regex every word has length bounded by the number of
     symbol occurrences. *)
  let rec bound = function
    | Empty | Eps -> 0
    | Sym _ -> 1
    | Seq (r, s) -> bound r + bound s
    | Alt (r, s) -> max (bound r) (bound s)
    | Star r | Plus r | Opt r -> bound r
  in
  enumerate ~max_len:(bound r) r

let shortest_word r =
  (* Compute the length of a shortest word symbolically, then extract. *)
  let rec short = function
    | Empty -> None
    | Eps -> Some []
    | Sym a -> Some [ a ]
    | Seq (r, s) -> begin
      match short r, short s with
      | Some u, Some v -> Some (u @ v)
      | _ -> None
    end
    | Alt (r, s) -> begin
      match short r, short s with
      | Some u, Some v -> if List.length u <= List.length v then Some u else Some v
      | (Some _ as x), None | None, (Some _ as x) -> x
      | None, None -> None
    end
    | Star _ | Opt _ -> Some []
    | Plus r -> short r
  in
  short r

(* ------------------------------------------------------------------ *)
(* Concrete syntax                                                     *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse str =
  let n = String.length str in
  let pos = ref 0 in
  let peek () = if !pos < n then Some str.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d in %S" msg !pos str)) in
  (* alt := cat ('|' cat)* ; cat := postfix+ ; postfix := atom [*+?]* *)
  let rec parse_alt () =
    let r = parse_cat () in
    skip_ws ();
    match peek () with
    | Some '|' ->
      advance ();
      alt r (parse_alt ())
    | _ -> r
  and parse_cat () =
    let rec go acc =
      skip_ws ();
      match peek () with
      | None | Some ')' | Some '|' -> acc
      | Some _ -> go (seq acc (parse_postfix ()))
    in
    skip_ws ();
    (match peek () with
    | None | Some ')' | Some '|' -> fail "empty expression"
    | Some _ -> ());
    go (parse_postfix ())
  and parse_postfix () =
    let r = parse_atom () in
    let rec go r =
      match peek () with
      | Some '*' ->
        advance ();
        go (star r)
      | Some '+' ->
        advance ();
        go (plus r)
      | Some '?' ->
        advance ();
        go (opt r)
      | _ -> r
    in
    go r
  and parse_atom () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end"
    | Some '(' ->
      advance ();
      let r = parse_alt () in
      skip_ws ();
      (match peek () with
      | Some ')' -> advance ()
      | _ -> fail "expected ')'");
      r
    | Some '%' ->
      advance ();
      eps
    | Some '!' ->
      advance ();
      empty
    | Some '<' ->
      advance ();
      let start = !pos in
      let rec scan () =
        match peek () with
        | Some '>' ->
          let s = String.sub str start (!pos - start) in
          advance ();
          s
        | Some _ ->
          advance ();
          scan ()
        | None -> fail "unterminated '<'"
      in
      sym (scan ())
    | Some (('*' | '+' | '?' | ')' | '|') as c) ->
      fail (Printf.sprintf "unexpected %c" c)
    | Some c ->
      advance ();
      sym (String.make 1 c)
  in
  let r = parse_alt () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  r

(* Precedence-aware printer: Alt(0) < Seq(1) < postfix(2) < atom(3). *)
let to_string r =
  let buf = Buffer.create 32 in
  let paren cond body =
    if cond then Buffer.add_char buf '(';
    body ();
    if cond then Buffer.add_char buf ')'
  in
  let add_sym a =
    if String.length a = 1 && not (String.contains "()|*+?%!<> \t\n" a.[0]) then
      Buffer.add_string buf a
    else begin
      Buffer.add_char buf '<';
      Buffer.add_string buf a;
      Buffer.add_char buf '>'
    end
  in
  let rec go prec = function
    | Empty -> Buffer.add_char buf '!'
    | Eps -> Buffer.add_char buf '%'
    | Sym a -> add_sym a
    | Seq (r, s) ->
      paren (prec > 1) (fun () ->
          go 1 r;
          go 2 s)
    | Alt (r, s) ->
      paren (prec > 0) (fun () ->
          go 0 r;
          Buffer.add_char buf '|';
          go 1 s)
    | Star r ->
      paren (prec > 2) (fun () ->
          go 3 r;
          Buffer.add_char buf '*')
    | Plus r ->
      paren (prec > 2) (fun () ->
          go 3 r;
          Buffer.add_char buf '+')
    | Opt r ->
      paren (prec > 2) (fun () ->
          go 3 r;
          Buffer.add_char buf '?')
  in
  go 0 r;
  Buffer.contents buf

let pp ppf r = Format.pp_print_string ppf (to_string r)
