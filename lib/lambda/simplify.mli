(** A conservative simplifier over the lambda IR.

    The match compiler and the record-based module translation produce
    noisy code (join-point thunks, selections from literal tuples,
    fields of literal records).  This pass cleans it up with
    semantics-preserving rewrites:

    - beta reduction: [(fn x => body) arg ⇒ let x = arg in body];
    - inlining of atomic bindings (variables, constants, primitives);
    - dead pure bindings eliminated;
    - projections from literal tuples/records reduced;
    - constant folding of integer arithmetic, comparisons and boolean
      primitives (division by a literal zero is left in place, it must
      raise [Div] at run time);
    - constructor tag/argument extraction on literal constructors;
    - [if] over a literal boolean.

    The rewrites run as a census-based shrinker (after Appel and Jim,
    "Shrinking lambda expressions in linear time").  A census first
    counts every variable's occurrences in one walk.  A single shrinking
    walk then decides each [let] from its binder's count {e before} it
    walks the scope: an atom is copied to every occurrence, a pure term
    used once (and a function used once, not yet shrunk) is spliced in
    where its occurrence turns up, and a dead pure binding is deleted
    unwalked.  Every rewrite keeps the counts exact — a deleted subterm
    gives back its occurrences, an inlined atom variable takes over the
    binder's — so a [let] whose count falls to zero while its scope
    shrinks, or a [fix] function nothing refers to any more, is dropped
    on the way back up.  Each input node is shrunk at most once, and a
    beta-redex's body is shrunk once, as the [let] it becomes.

    A pass can leave a rewrite that only became possible in code it had
    already shrunk: a binding whose count fell to one, or an application
    whose head only then became a [fn].  It records that, and the
    fixpoint is one more census and pass (never more than 4 in all).
    Every unit of the benchmark's workloads reaches it in one.

    The counts are exact because all binders produced by elaboration are
    globally unique, and the shrinker keeps them so (an inlined term is
    moved, never copied; only atoms are copied): substitution needs no
    renaming and a binder's occurrences are all in its scope. *)

(** [term t] — simplify to the fixpoint. *)
val term : Lambda.t -> Lambda.t

type stats = {
  before_nodes : int;
  after_nodes : int;
  passes : int;  (** census-and-shrink passes run, 1 when nothing was missed *)
}

(** [term_with_stats t] — [term t], with the sizes at entry and exit.
    Also adds to the metrics [simplify.passes], [simplify.rewrites]
    (nodes eliminated) and [simplify.visits] (nodes visited by the
    census, the shrinking walk, deletions and purity checks). *)
val term_with_stats : Lambda.t -> Lambda.t * stats
