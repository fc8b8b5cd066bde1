"""Call and argument-set profiling (paper Section 2).

:class:`CallProfiler` plugs into the interpreter's ``profiler`` hook
and records, per guest function:

* how many times it was called (Figure 1 / Figure 3 top),
* how many *distinct argument sets* it received (Figure 2 / Figure 3
  bottom), under the same matching the specialization cache uses
  (primitives by value and representation, references by identity) —
  the profile holds the arguments it counted, so a freed object's
  address can never make two argument sets one,
* the type tags of the parameters of functions only ever called with a
  single argument set (Figure 4).

The same class profiles synthetic web-corpus traces (Figures 1, 2, 4
for the Alexa study) — it only needs ``record_call``.
"""

from collections import Counter

from repro.jsvm.values import arguments_key, type_tag

#: The type categories of the paper's Figure 4, in its display order.
FIGURE4_CATEGORIES = [
    "array",
    "bool",
    "double",
    "function",
    "int",
    "null",
    "object",
    "string",
    "undefined",
]


class FunctionProfile(object):
    """Per-function call record."""

    __slots__ = ("name", "call_count", "argument_sets", "first_arg_tags")

    def __init__(self, name):
        self.name = name
        self.call_count = 0
        self.argument_sets = set()
        #: Type tags of the first observed argument list.
        self.first_arg_tags = None

    @property
    def distinct_argument_sets(self):
        return len(self.argument_sets)

    @property
    def monomorphic(self):
        """Called with exactly one argument set throughout the run."""
        return len(self.argument_sets) == 1


class CallProfiler(object):
    """Implements the interpreter's ``profiler`` interface."""

    def __init__(self):
        self.profiles = {}

    def record_call(self, function, args):
        profile = self.profiles.get(function)
        if profile is None:
            profile = FunctionProfile(getattr(function, "name", str(function)))
            self.profiles[function] = profile
        profile.call_count += 1
        profile.argument_sets.add(arguments_key(args))
        if profile.first_arg_tags is None:
            profile.first_arg_tags = tuple(type_tag(a) for a in args)

    # Synthetic traces (the web corpus) record pre-keyed calls.
    def record_synthetic_call(self, function_key, args_key, arg_tags, name=None):
        profile = self.profiles.get(function_key)
        if profile is None:
            profile = FunctionProfile(name or str(function_key))
            self.profiles[function_key] = profile
        profile.call_count += 1
        profile.argument_sets.add(args_key)
        if profile.first_arg_tags is None:
            profile.first_arg_tags = tuple(arg_tags)

    # -- figure data ---------------------------------------------------------

    @property
    def num_functions(self):
        return len(self.profiles)

    def call_count_histogram(self):
        """Figure 1 / Figure 3 (top): #functions per call count."""
        return histogram(p.call_count for p in self.profiles.values())

    def argument_set_histogram(self):
        """Figure 2 / Figure 3 (bottom): #functions per distinct-set count."""
        return histogram(p.distinct_argument_sets for p in self.profiles.values())

    def fraction_called_once(self):
        return self._fraction(lambda p: p.call_count == 1)

    def fraction_single_argument_set(self):
        return self._fraction(lambda p: p.monomorphic)

    def _fraction(self, predicate):
        if not self.profiles:
            return 0.0
        hits = sum(1 for p in self.profiles.values() if predicate(p))
        return hits / float(len(self.profiles))

    def parameter_type_distribution(self):
        """Figure 4: type mix of parameters of monomorphic functions."""
        tags = []
        for profile in self.profiles.values():
            if profile.monomorphic and profile.first_arg_tags:
                tags.extend(profile.first_arg_tags)
        return type_distribution(tags)


def histogram(values):
    """Counter value -> frequency."""
    return Counter(values)


def percent_histogram(values):
    """Counter value -> fraction of the population."""
    counts = Counter(values)
    total = float(sum(counts.values())) or 1.0
    return {k: v / total for k, v in counts.items()}


def type_distribution(tags):
    """Fraction per Figure-4 category (categories always present)."""
    counts = Counter(tags)
    total = float(sum(counts.values())) or 1.0
    return {
        category: counts.get(category, 0) / total for category in FIGURE4_CATEGORIES
    }
