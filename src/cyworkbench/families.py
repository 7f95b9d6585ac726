"""Family configurations and their JSON (de)serialization.

The reference families (quintic, sextic) live only in ``configs/``;
the test suite loads those files through ``family_from_json`` and
checks each shipped operator against its independently computed
factorial sum, e.g. sum_d (5d)!/(d!)^5 z^d for the quintic.  The
degenerate theta^4 family below has no config file.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, malformed_input
from .genus0 import CYFamilyConfig
from .picard_fuchs import PFOperator


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
        "kappa": 1,
        "triple_intersection": config.triple_intersection,
        "c2_H": config.c2_H,
        "euler": config.euler,
        "operator": config.pf.to_json(),
    }


def family_from_json(obj) -> CYFamilyConfig:
    with malformed_input("family config"):
        op = PFOperator.from_json(obj["operator"])
        if int(obj.get("kappa", 1)) != 1:
            raise DomainError("only one-parameter families are supported")
        return CYFamilyConfig(
            name=str(obj["name"]),
            pf=op,
            triple_intersection=int(obj["triple_intersection"]),
            c2_H=int(obj["c2_H"]),
            euler=int(obj["euler"]),
        )
