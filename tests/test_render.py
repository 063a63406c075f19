import hashlib

import pytest

from tunnelfill import (
    Arrow,
    Generator,
    Grading,
    Monomial,
    RenderError,
    SignSequence,
    build_standard,
    decide,
    realize,
    render_svg,
)
from tunnelfill.lattice import lattice_positions
from tunnelfill.rings import R1, RINF
from conftest import census_realizations, make_complex


class TestPositions:
    def test_staircase_coordinates(self):
        c = build_standard(SignSequence((2, 2)))
        pos = lattice_positions(c)
        assert pos == {0: (0, 0), 1: (2, 0), 2: (2, 2)}

    def test_single_generator(self):
        c = make_complex(R1, [Generator("a", Grading(0, 0))], [])
        assert lattice_positions(c) == {0: (0, 0)}

    def test_empty_complex(self):
        assert lattice_positions(make_complex(R1, [], [])) == {}

    def test_disconnected_complex_rejected(self):
        gens = [Generator("a", Grading(0, 0)), Generator("b", Grading(0, 0))]
        c = make_complex(R1, gens, [])
        with pytest.raises(RenderError, match="disconnected"):
            lattice_positions(c)

    def test_non_diagonal_mismatch_rejected(self):
        gens = [Generator("a", Grading(0, 0)), Generator("b", Grading(0, 0))]
        arrows = [Arrow(0, Monomial(1, 0), 1), Arrow(0, Monomial(2, 0), 1)]
        c = make_complex(RINF, gens, arrows)
        with pytest.raises(RenderError, match="inconsistent"):
            lattice_positions(c)

    def test_diagonal_mismatch_tolerated(self):
        gens = [Generator("a", Grading(0, 0)), Generator("b", Grading(0, 0))]
        arrows = [Arrow(0, Monomial(1, 0), 1), Arrow(0, Monomial(2, 1), 1)]
        c = make_complex(RINF, gens, arrows)
        assert lattice_positions(c)

    def test_realization_positions_complete(self):
        glued = realize(SignSequence((-1, 1, 2, -1, 1, 3)))
        pos = lattice_positions(glued)
        assert len(pos) == len(glued.generators)


class TestSvg:
    def test_single_dot(self):
        c = make_complex(R1, [Generator("a", Grading(0, 0))], [])
        svg = render_svg(c)
        assert svg.count("<circle") == 1
        assert "<line" not in svg

    def test_empty_complex(self):
        svg = render_svg(make_complex(R1, [], []))
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "<circle" not in svg

    def test_one_circle_per_generator_and_line_per_arrow(self):
        c = build_standard(SignSequence((2, -2, -1, 1, 3, -1)))
        svg = render_svg(c)
        assert svg.count("<circle") == len(c.generators)
        assert svg.count("<line") == len(c.arrows)

    def test_added_arrows_are_dashed(self):
        outcome = decide(SignSequence((-1, 1, 2, -1, 1, 3)))
        svg = render_svg(outcome.complex)
        assert svg.count("stroke-dasharray") == len(outcome.added)

    def test_doubling_colors_present(self):
        glued = realize(SignSequence((2, 2)))
        svg = render_svg(glued)
        for color in ("#cc2222", "#11a0cc", "#118833"):
            assert color in svg

    def test_pipeline_outputs_render(self):
        for entries in [(1, -1), (2, 2), (-1, 1, 2, -1, 1, 3), (2, -2)]:
            glued = realize(SignSequence(entries))
            svg = render_svg(glued)
            assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_census_realizations_are_pinned(self):
        # The SVG of every realizable n <= 2, |a_i| <= 3 row, concatenated
        # in census order.
        realized = census_realizations()
        digest = hashlib.sha256()
        for glued in realized:
            digest.update(render_svg(glued).encode())
        assert len(realized) == 636
        assert digest.hexdigest() == (
            "7d660f0c9ddc8ad64e6175bce561fe6c82cd2c398dd47c5ef14f16e4173834c9"
        )

    def test_labels_are_escaped(self):
        c = make_complex(R1, [Generator("a<b&c>", Grading(0, 0))], [])
        assert ">a&lt;b&amp;c&gt;</text>" in render_svg(c)

    def test_labels_can_be_disabled(self):
        c = build_standard(SignSequence((2, 2)))
        assert "<text" in render_svg(c)
        assert "<text" not in render_svg(c, labels=False)
