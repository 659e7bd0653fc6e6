"""Tools for one-dimensional shift spaces and their two-dimensional
space-time dynamics: a marker/bracket automaton whose information front
grows like a power of time below one (Λ⁺(t) ≍ t^α, α < 1), a cycle machine
realizing prescribed dependency slopes, exact rational slope programs, and
analysis helpers (determined regions, one-sided Lyapunov profiles,
blocking-word searches)."""

__version__ = "0.1.0"
