(** Regular expressions over the integer alphabet [{0, ..., k-1}]: the
    Roman-model action languages, the CGLV rewriting inputs, and 2RPQs. *)

type t =
  | Empty  (** the empty language *)
  | Eps    (** the empty word *)
  | Sym of int
  | Alt of t * t
  | Seq of t * t
  | Star of t

val sym : int -> t
val alt : t list -> t
val seq : t list -> t
val star : t -> t
val opt : t -> t
val plus : t -> t

(** The one-word language of the given symbol sequence. *)
val word : int list -> t

val symbols : t -> int list
val max_symbol : t -> int

(** Smallest alphabet covering every given regex (at least one symbol):
    the alphabet the CLI and the server build NFAs over. *)
val alphabet_size_of : t list -> int

val nullable : t -> bool

(** Brzozowski derivative: the independent membership oracle the Thompson
    construction is property-tested against. *)
val derivative : int -> t -> t

val matches : t -> int list -> bool

exception Parse_error of string

(** Compact concrete syntax: letters [a..z] are symbols 0..25, ['|']
    alternation, juxtaposition sequence, ['*' '+' '?'] postfix,
    parentheses group, ['0'] the empty language, ['1'] the empty word. *)
val parse : string -> t

val pp : t Fmt.t
val to_string : t -> string
