"""Exact combinatorics of the flagged homogeneous polynomial basis: key
polynomials and atoms, the flagged RSK correspondence, Kohnert diagram
characters, snake tabloid inverse expansions, and Schubert Pieri chains."""

from .bases import (BasisExpansion, demazure_atom, expand_h_into_atoms,
                    expand_h_into_keys, h_complete, h_flagged,
                    h_flagged_matrix_oracle, h_sym, key_polynomial, kostka,
                    ktilde, ktilde_upper, schur_ssyt)
from .compositions import key_poset_leq
from .fillings import (FillingStats, attacking, enumerate_fillings,
                       is_member, key_diagram, statistics, weight_of)
from .frsk import (biword_from_matrix, frsk, frsk_inverse, matrix_from_biword,
                   rho, rho_inverse, rsk, rsk_inverse, tau, tau_dagger)
from .kohnert import (build_Da, kohnert_closure, kohnert_moves,
                      kohnert_polynomial, phi, phi_inverse)
from .permutations import grassmannian_perm, k_bruhat_covers
from .polynomials import Poly, divided_difference, express_in_basis
from .schubert import (h_schubert_expansion, horizontal_strip_targets,
                       pieri_multiply, schubert_oracle)
from .snakes import (SnakeTabloid, enumerate_special_snake_tabloids,
                     gset_enumerate, inverse_ktilde, iota, is_rim_hook,
                     is_snake, is_special_snake, s_attacks)

__version__ = "0.1.0"
