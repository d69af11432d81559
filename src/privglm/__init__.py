"""Truthful, jointly-differentially-private GLM estimation at desk scale.

The package splits into link algebra (`links`), closed-form estimators and
sensitivity bounds (`estimators`), noise and the privacy account (`privacy`),
synthetic agent populations and the threshold strategy (`population`), the
end-to-end mechanisms (`mechanism`), and the experiment harness plus CLI
(`harness`, `cli`).
"""

__version__ = "0.1.0"
