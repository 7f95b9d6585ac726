"""Reference family configurations and their JSON (de)serialization.

The quintic ships as the reference configuration.  Its operator

    theta^4 - 5 z (5 theta + 1)(5 theta + 2)(5 theta + 3)(5 theta + 4)

is not taken on faith: the test suite checks that it annihilates the
independently computed factorial sum sum_d (5d)!/(d!)^5 z^d.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import malformed_input
from .genus0 import CYFamilyConfig
from .picard_fuchs import PFOperator


def quintic() -> CYFamilyConfig:
    """The quintic threefold family: H^3 = 5, c2.H = 50, chi = -200."""
    op = PFOperator(
        coefficients=(
            (Fraction(0), Fraction(-120)),
            (Fraction(0), Fraction(-1250)),
            (Fraction(0), Fraction(-4375)),
            (Fraction(0), Fraction(-6250)),
            (Fraction(1), Fraction(-3125)),
        ),
        singular_radius=Fraction(1, 3125),
    )
    return CYFamilyConfig(name="quintic", pf=op, triple_intersection=5,
                          c2_H=50, euler=-200)


def sextic() -> CYFamilyConfig:
    """Degree-6 hypersurface in weighted P(1,1,1,1,2): H^3 = 3, chi = -204.

    Fundamental period sum_d (6d)!/((d!)^4 (2d)!) z^d, singular point at
    z = 1/11664.
    """
    op = PFOperator(
        coefficients=(
            (Fraction(0), Fraction(-360)),
            (Fraction(0), Fraction(-4212)),
            (Fraction(0), Fraction(-15876)),
            (Fraction(0), Fraction(-23328)),
            (Fraction(1), Fraction(-11664)),
        ),
        singular_radius=Fraction(1, 11664),
    )
    return CYFamilyConfig(name="sextic", pf=op, triple_intersection=3,
                          c2_H=42, euler=-204)


def constant_coupling_family(triple_intersection: int = 1,
                             name: str = "theta4") -> CYFamilyConfig:
    """Degenerate test family with operator theta^4 (no quantum part)."""
    op = PFOperator(
        coefficients=((), (), (), (), (Fraction(1),)),
        singular_radius=Fraction(1),
    )
    return CYFamilyConfig(name=name, pf=op,
                          triple_intersection=triple_intersection,
                          c2_H=0, euler=0)


def family_to_json(config: CYFamilyConfig) -> dict:
    return {
        "name": config.name,
        "kappa": config.kappa,
        "triple_intersection": config.triple_intersection,
        "c2_H": config.c2_H,
        "euler": config.euler,
        "operator": config.pf.to_json(),
    }


def family_from_json(obj) -> CYFamilyConfig:
    with malformed_input("family config"):
        op = PFOperator.from_json(obj["operator"])
        return CYFamilyConfig(
            name=str(obj["name"]),
            pf=op,
            triple_intersection=int(obj["triple_intersection"]),
            c2_H=int(obj["c2_H"]),
            euler=int(obj["euler"]),
            kappa=int(obj.get("kappa", 1)),
        )
