(** Counterexample search: run an array of cases, report the lowest
    failing one, shrunk.

    The crash-plan fuzzer ([Fault.Fuzz]) and the model checker
    ([Check.Runner]) are both this search, over replayable cases it
    knows nothing about. The verdict is a function of the cases and the
    test alone; the domain count changes only the wall clock. *)

type 'a counterexample = {
  original : 'a;  (** the lowest failing case *)
  shrunk : 'a;  (** the smallest still-failing case found *)
  reason : string;  (** the test's verdict on [shrunk] *)
}

val max_domains : int
(** The most domains {!run} takes: 64, half the OCaml 5 runtime's limit
    of 128 domains alive at once. *)

val run :
  ?domains:int ->
  test:('a -> ('b, string) result) ->
  candidates:('a -> 'a list) ->
  'a array ->
  'a counterexample option
(** [run ~test ~candidates cases] tests [cases] in index order on
    [domains] OCaml domains (default 1: inline) pulling indices from one
    counter. No index above the lowest failure found so far is started,
    so one domain stops at the first failure. [None] means every case
    passed. Otherwise the lowest failing case is shrunk on the calling
    domain: recurse on the first of its [candidates] that still fails,
    for at most 64 rounds. If [test] raised at the
    lowest failing index, that exception is re-raised instead. With
    [domains > 1], [test] runs on several domains at once. Raises
    [Invalid_argument], before testing any case, when [domains] is not
    in [1..max_domains]. *)

(** {1 One-line repros}

    Readers for a case printed as one line of space-separated
    [key=value] fields; errors name the offending token or field. *)

type fields

val fields : string -> (fields, string) result
(** Split a line into its fields. [Error] names the first token without
    an [=]; a repeated key keeps its last value. *)

val field : fields -> string -> (string, string) result
(** The field's value; [Error] when it is missing. *)

val int_field : fields -> string -> (int, string) result
(** A required integer field. *)

val opt_int_field : fields -> string -> (int option, string) result
(** An optional integer field: [Ok None] when absent. *)

val dash_int_field : fields -> string -> (int option, string) result
(** A required field holding [-] ([Ok None]) or an integer. *)

val dedup : key:('a -> string) -> 'a -> 'a list -> 'a list
(** [dedup ~key case candidates] drops the candidates equal to [case]
    and those whose [key] repeats an earlier one's, keeping the order. *)
