"""Truncated exponent-monoid ring models and power-containment checking.

The package decides statements of the form "the n-th power of every element
of the ideal I lands in B" on finitely truncated models, producing either a
certificate, an explicit witness element, or an honest refusal when the
configured budgets run out.
"""

__version__ = "0.1.0"

from .arith import (AlaResult, FloorInequalityResult, PrimeChar,
                    ala_counterexample_scan, check_ala,
                    check_floor_inequality, is_prime, legendre, multinomial,
                    padic_valuation, primes_up_to)
from .budget import PROFILES, Budgets, SearchContext, budgets_from_env
from .errors import (BudgetExceeded, CombinatorialBudgetExceeded,
                     CompositionMismatch, DegreeBudgetExceeded,
                     NoCertificateApplicable, PreconditionViolated,
                     SampleBudgetExceeded, SchemaError, SearchBudgetExceeded,
                     SftkitError, TruncationTooSmall, UnknownExample,
                     UnsupportedIdeal, UnsupportedModel)
from .exponents import ExponentVector, MonoidMembershipWitness, MonoidPresentation
from .ideals import MonomialIdeal, ideal_member, monomial_ideal
from .elements import (CharPMonoidRing, DyadicRing, Int2xRing, IntIdeal,
                       PolyElement, element_add, element_in_ideal,
                       element_multiply, element_power, element_scale,
                       int_ideal_full, int_ideal_two, make_element,
                       monomial_element, random_element, zero_element)
from .models import (FAMILIES, CatalogClaim, RingModel, build_model,
                     builtin_catalog, catalog_claims, catalog_models)
from .sftcheck import (Certificate, SftData, Verdict, VerificationReport,
                       anyradical_index, build_sft_data,
                       certify_sft_all_elements, check_extension_vsft,
                       check_power_data,
                       check_quotient_pushforward, check_radical_equal,
                       check_sft_extension_exponent, divergence_table,
                       find_vsft_witness, minimal_vsft_index,
                       modified_radical_power_index, strong_convergence_check,
                       valuation_non_sft_scan, verify_sft_generators,
                       verify_vsft)
from .suite import (CLAIM_KINDS, ClaimResult, claim_seed, exit_code,
                    run_claim, run_example, run_suite)
from .files import (CLAIMS_SCHEMA, MODEL_SCHEMA, REPORT_SCHEMA, claims_doc,
                    drop_timing, dumps_doc, dumps_record, jsonify, load_json,
                    model_to_record, parse_claims_doc, probe_record,
                    record_to_claim, record_to_model, report_payload,
                    report_record)

__all__ = [name for name in dir() if not name.startswith("_")]
