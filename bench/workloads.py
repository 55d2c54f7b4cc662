"""The benchmark's workloads: an lrhive command line each, and its expected output.

A sweep takes its inputs from the workload seed: each cold process gets the
next seed of `random.Random(seed)` and passes it to `lrhive verify --seed`.
A correct sweep prints the same bytes for every seed (every sampled instance
agrees), so its expected stdout follows from the workload alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Sweep:
    """`lrhive verify` over a seeded sample of one family in one box.

    The sample must not exceed the family's instance count in the box, or the
    sweep prints fewer instances than `expected_stdout` says.
    """

    family: str
    box: str
    sample: int
    method: str

    max_weight = None

    @property
    def instances(self):
        return self.sample

    @property
    def items(self):
        """Work items per process: one per sweep instance."""
        return self.sample

    def argv(self, seed):
        return [
            "verify",
            "--family", self.family,
            "--box", self.box,
            "--sample", str(self.sample),
            "--seed", str(seed),
            "--method", self.method,
        ]

    def check_argv(self):
        return None

    def expected_stdout(self):
        n = self.sample
        return (
            f"family: {self.family}\nbox: {self.box}\nmethod: {self.method}\n"
            f"instances: {n}\nagree: {n}\ndisagree: 0\n"
        ).encode()


@dataclass(frozen=True)
class Coefficient:
    """`lrhive lrcoef` on one fixed triple whose value is known."""

    lam: str
    mu: str
    nu: str
    value: int
    max_weight: str | None = None

    instances = 1

    @property
    def items(self):
        """Work items per process: one per hive counted."""
        return self.value

    def argv(self, seed):
        del seed  # a fixed instance
        return ["lrcoef", "--lambda", self.lam, "--mu", self.mu, "--nu", self.nu]

    def check_argv(self):
        """The same query by the tableau engine, so the hive engine is not its own oracle."""
        return self.argv(None) + ["--method", "tableau"]

    def expected_stdout(self):
        return f"{self.value}\n".encode()


WORKLOADS = {
    # The ROADMAP's headline sweep: about 28k short hive searches with small
    # counts, so per-search fixed cost and candidate generation show.
    "sweep-products": Sweep("products", "4x4", 400, "hive"),
    # The only workload where the tableau engine, skew shapes, the gty_mf
    # classifier and instance enumeration do real work; no hive search runs.
    "sweep-skews": Sweep("skews", "5x6", 3000, "tableau"),
    # One deep hive search: 6,5,4,3,1,1 / 4,3,2,1 / 4,3,2,1 stretched 6 times.
    "stretched-coef": Coefficient(
        "36,30,24,18,6,6", "24,18,12,6", "24,18,12,6", 30348, max_weight="120"
    ),
}

# The same three shapes at sizes that finish in well under a second.
TINY_WORKLOADS = {
    "sweep-products": Sweep("products", "2x2", 20, "hive"),
    "sweep-skews": Sweep("skews", "3x3", 20, "tableau"),
    "stretched-coef": Coefficient("6,5,4,3,1,1", "4,3,2,1", "4,3,2,1", 18),
}
