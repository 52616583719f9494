"""Bundled sample corpus and replay fixture.

``materialize_sample`` writes a self-contained evaluation bundle into a
directory: an 8-quiz, 79-question manifest with per-question placeholder
images, and a replay fixture whose responses realize a fixed correctness
pattern (66 of 79 right: 8, 7, 9, 9, 6, 10, 9 of 9, 8 per quiz). The
fixture's failure set concentrates on cardiovascular, skin, and endocrine
images, includes eye and head-and-neck images that never appear among the
successes, and carries explanation texts whose entities form a noticeably
denser co-occurrence graph than the success branch. Everything here is
deterministic: two materializations are byte-identical.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from .atomic import write_atomic

LETTERS = "ABCDE"

_QUIZ_TITLES = (
    ("quiz1", "Atherosclerosis and Thrombosis"),
    ("quiz2", "Cell Injury"),
    ("quiz3", "Dermatopathology"),
    ("quiz4", "Immunopathology"),
    ("quiz5", "Inflammation"),
    ("quiz6", "Neoplasia"),
    ("quiz7", "Cardiovascular Pathology"),
    ("quiz8", "Endocrine Pathology"),
)

_TAGS = {
    "quiz1": ["CV"] * 10,
    "quiz2": ["CNS", "LIVER", "LIVER", "CNS", "LUNG", "SKIN", "RENAL", "GI", "CV", "LIVER"],
    "quiz3": ["SKIN"] * 10,
    "quiz4": ["SKIN", "SKIN", "IMM", "IMM", "IMM", "SKIN", "IMM", "ENDO", "RENAL", "LUNG"],
    "quiz5": ["INFL", "EYE", "INFL", "SKIN", "HN", "GI", "INFL", "LUNG", "FEM", "INFL"],
    "quiz6": ["NEO", "NEO", "BREAST", "GI", "NEO", "CNS", "BREAST", "FEM", "LIVER", "NEO"],
    "quiz7": ["CV", "CV", "LUNG", "CV", "RENAL", "CV", "LUNG", "CV", "CV"],
    "quiz8": ["ENDO"] * 10,
}

# 1-based positions of the questions the replayed engine gets wrong.
_INCORRECT_POSITIONS = {
    "quiz1": {1, 7},
    "quiz2": {2, 5, 9},
    "quiz3": {3},
    "quiz4": {6},
    "quiz5": {2, 5, 7, 9},
    "quiz6": set(),
    "quiz7": set(),
    "quiz8": {3, 8},
}

_TAG_VOCABULARY = [
    "BREAST", "CNS", "CV", "CYTOG", "ENDO", "EYE", "FEM", "GI", "HIV", "HN",
    "IMM", "INFEC", "INFL", "LIVER", "LUNG", "NEO", "PERI", "RENAL", "SKIN",
]

_STEM_FINDINGS = {
    "CV": "progressive exertional breathlessness and an abnormal cardiac contour",
    "SKIN": "a slowly enlarging cutaneous lesion",
    "ENDO": "fatigue, weight change, and a palpable neck nodule",
    "LUNG": "a chronic cough with an abnormal chest radiograph",
    "LIVER": "right upper quadrant discomfort and abnormal liver enzymes",
    "RENAL": "hematuria and flank pain",
    "CNS": "new-onset headache with focal neurological signs",
    "GI": "intermittent abdominal pain and altered bowel habit",
    "IMM": "recurrent infections and a diffuse rash",
    "INFL": "a warm, swollen, and painful region",
    "NEO": "a painless mass discovered on routine examination",
    "BREAST": "a firm breast lump found on self-examination",
    "FEM": "thigh pain worsening with weight bearing",
    "EYE": "progressive visual blurring in one eye",
    "HN": "a persistent sore area in the upper airway",
}

_ORGAN_BY_TAG = {
    "CV": "heart",
    "SKIN": "skin",
    "ENDO": "thyroid",
    "LUNG": "lung",
    "LIVER": "liver",
    "RENAL": "kidney",
    "CNS": "brain",
    "GI": "colon",
    "IMM": "spleen",
    "INFL": "lymph node",
    "NEO": "breast",
    "BREAST": "breast",
    "FEM": "femur",
    "EYE": "eye",
    "HN": "head and neck",
}

_HUBS = ("tissue", "cells", "tissue", "nuclei", "tissue", "edema", "cells", "skin")

_FILLERS = (
    "necrosis", "fibrosis", "granuloma", "thrombosis", "hyperplasia", "hypertrophy",
    "dysplasia", "calcification", "ulcer", "abscess", "cyst", "polyp", "ischemia",
    "jaundice", "stenosis", "tuberculosis", "sarcoidosis", "cirrhosis", "hepatitis",
    "pneumonia", "melanoma", "lymphoma", "leukemia", "carcinoma", "gout", "anemia",
    "asthma", "emphysema", "psoriasis", "eczema", "lupus", "arthritis", "osteoporosis",
    "meningitis", "encephalitis", "colitis", "gastritis", "pancreatitis", "nephritis",
    "dermatitis", "cellulitis", "collagen", "amyloid", "keratin", "melanin", "fibrin",
    "hemosiderin", "cholesterol", "glucose", "calcium",
)

_CHOICE_POOL = (
    "Amyloidosis", "Systemic hypertension", "Diffuse scleroderma", "Atherosclerosis",
    "Viral myocarditis", "Granulomatous inflammation", "Caseous necrosis", "Apoptosis",
    "Dense collagen deposition", "Squamous dysplasia", "Acute infarction",
    "Chronic ischemia", "Fatty change", "Metastatic carcinoma", "Benign hyperplasia",
    "Autoimmune reaction", "Bacterial infection", "Viral infection", "Fungal infection",
    "Parasitic infestation", "Toxic injury", "Radiation change", "Congenital malformation",
)

_MARKER_VARIANTS = ("Correct Choice:{0}", "Correct Choice: {0}.", "Choice:{0}", "Correct choice: {0}")

# Explanation texts for the questions answered incorrectly; these feed the
# failure-branch entity extraction, so they deliberately share entities.
_INCORRECT_EXPLANATIONS = {
    "q101": (
        "Healing of a transmural myocardial infarction has produced a ventricular "
        "aneurysm; the underlying process is severe occlusive coronary artery "
        "atherosclerosis of the heart."
    ),
    "q107": (
        "This is an atherosclerotic aneurysm of the lower abdominal aortic segment; "
        "advanced atherosclerosis weakens the wall, and dissection may follow."
    ),
    "q202": (
        "Conjugated hyperbilirubinemia with a mass in the liver raises concern for "
        "malignancy; coexisting diabetes mellitus is a recognized risk factor."
    ),
    "q205": (
        "Cachexia in this patient reflects advanced malignancy of the lung; "
        "recurrence after resection is common."
    ),
    "q209": (
        "Cystic medial necrosis of the aorta predisposes to dissection; "
        "atherosclerosis and diabetes mellitus accelerate the process in the "
        "lower abdominal aortic wall."
    ),
    "q303": (
        "This is a friction blister: a clear fluid collection between layers of the "
        "epidermis of the skin; no malignancy is present."
    ),
    "q406": (
        "Chronic irritation of the skin induces squamous metaplasia, which can "
        "progress to malignancy with recurrence after excision."
    ),
    "q502": (
        "There is edema of the optic nerve with fluid collection beneath the retina "
        "of the eye, indicating raised intracranial pressure."
    ),
    "q505": (
        "Squamous metaplasia in the head and neck mucosa carries a persistent risk "
        "of malignancy and recurrence after treatment."
    ),
    "q507": (
        "Acute inflammation with edema and fluid collection is shown; granuloma "
        "formation follows persistent injury of the tissue."
    ),
    "q509": (
        "Osteomyelitis of the femur with fluid collection; recurrence is frequent "
        "when necrosis of the bone persists."
    ),
    "q803": (
        "Islet destruction in the pancreas causes diabetes mellitus; the resulting "
        "insulin deficiency produces hyperglycemia."
    ),
    "q808": (
        "A nodule of the thyroid harboring malignancy; diabetes mellitus coexists, "
        "and recurrence after resection occurs."
    ),
}

# Hand-written items kept coherent end to end: the replayed engine talks
# itself into the wrong letter on the first and nails the second.
_SPECIAL_STEMS = {
    "q101": (
        "A 67-year-old man has progressive shortness of breath and swelling of the "
        "ankles. Imaging shows an enlarged heart with poor contractile function. "
        "The gross appearance of the sectioned heart shown here is most consistent "
        "with which underlying condition?"
    ),
    "q301": (
        "A 36-year-old man sustained a deep laceration of the upper chest that was "
        "sutured. Over the following months a firm, raised lesion grew at the site "
        "and was excised. Microscopic examination of the lesion is most likely to "
        "show which of the following?"
    ),
}

_SPECIAL_CHOICES = {
    "q101": (
        "Amyloidosis", "Systemic hypertension", "Diffuse scleroderma",
        "Atherosclerosis", "Viral myocarditis",
    ),
    "q301": (
        "Necrotizing acute inflammation", "Granulomas with caseous necrosis",
        "Apoptosis", "Dense collagen bundles", "Atypical squamous epithelium",
    ),
}

_SPECIAL_RESPONSES = {
    "q101": (
        "The image shows a gross pathology specimen of a heart that appears "
        "enlarged and has thickened walls, particularly in the left ventricle. "
        "There are no signs of nodules, extensive fibrosis, or inflammatory "
        "lesions indicative of the other conditions listed. Choice:B"
    ),
    "q301": (
        "The image shows a large, irregular, flesh-colored mass with a rough "
        "texture. It appears to be an excised piece of tissue, with some areas "
        "that look fibrous and others that look softer and possibly mucoid or "
        "fatty. The ruler in the image provides a scale indicating the lesion is "
        "several centimeters across. Given the history of a traumatic laceration, "
        "the subsequent development of this lesion over months, and the appearance "
        "of the tissue, which suggests excessive growth possibly due to scar "
        "formation, microscopic examination is most likely to show dense collagen "
        "bundles, which are indicative of a scar or keloid formation.Choice:D"
    ),
}


@dataclass(frozen=True)
class SamplePaths:
    manifest: Path
    fixture: Path
    images_dir: Path


def _tiny_png() -> bytes:
    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)  # 1x1, 8-bit grayscale
    pixel_data = zlib.compress(b"\x00\x80")
    return b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header) + chunk(b"IDAT", pixel_data) + chunk(b"IEND", b"")


def _iter_items():
    """Yield (qid, quiz_id, title, position, tag, is_correct, global_index)."""
    index = 0
    for quiz_number, (quiz_id, title) in enumerate(_QUIZ_TITLES, start=1):
        tags = _TAGS[quiz_id]
        wrong = _INCORRECT_POSITIONS[quiz_id]
        for position, tag in enumerate(tags, start=1):
            qid = f"q{quiz_number}{position:02d}"
            yield qid, quiz_id, title, position, tag, position not in wrong, index
            index += 1


def _correct_letter(index: int) -> str:
    return LETTERS[(index * 3 + 3) % 5]


def _wrong_letter(correct: str) -> str:
    return LETTERS[(LETTERS.index(correct) + 1) % 5]


def _choices(index: int) -> tuple[str, ...]:
    pool = _CHOICE_POOL
    return tuple(pool[(3 * index + 5 * j) % len(pool)] for j in range(5))


def sample_manifest(images_dirname: str = "images") -> dict:
    """The sample corpus in manifest form (image paths relative)."""
    quizzes: dict[str, dict] = {
        quiz_id: {"id": quiz_id, "title": title, "questions": []} for quiz_id, title in _QUIZ_TITLES
    }
    for qid, quiz_id, _title, _position, tag, _is_correct, index in _iter_items():
        stem = _SPECIAL_STEMS.get(qid) or (
            f"A {25 + (7 * index) % 50}-year-old "
            f"{'woman' if index % 2 else 'man'} presents with "
            f"{_STEM_FINDINGS[tag]}. The image shown was obtained during the "
            "workup. Which of the following best explains the finding?"
        )
        choice_texts = _SPECIAL_CHOICES.get(qid) or _choices(index)
        explanation = _INCORRECT_EXPLANATIONS.get(qid) or (
            "The appearance shown is characteristic of this diagnosis; the "
            "distribution and the morphology exclude the listed alternatives."
        )
        quizzes[quiz_id]["questions"].append(
            {
                "id": qid,
                "stem": stem,
                "choices": [
                    {"letter": LETTERS[j], "text": text} for j, text in enumerate(choice_texts)
                ],
                "correct_letter": _correct_letter(index),
                "explanation": explanation,
                "image": {"path": f"{images_dirname}/{qid}.png", "domain_tag": tag},
            }
        )
    return {
        "tag_vocabulary": list(_TAG_VOCABULARY),
        "quizzes": [quizzes[quiz_id] for quiz_id, _ in _QUIZ_TITLES],
    }


def sample_fixture() -> dict[str, str]:
    """Replay responses keyed by question id, realizing the fixed pattern."""
    responses: dict[str, str] = {}
    correct_ordinal = 0
    for qid, _quiz_id, _title, _position, tag, is_correct, index in _iter_items():
        if qid in _SPECIAL_RESPONSES:
            responses[qid] = _SPECIAL_RESPONSES[qid]
            if is_correct:
                correct_ordinal += 1
            continue
        if is_correct:
            letter = _correct_letter(index)
            marker = _MARKER_VARIANTS[correct_ordinal % 4].format(letter)
            filler = _FILLERS[correct_ordinal % len(_FILLERS)]
            organ = _ORGAN_BY_TAG[tag]
            if correct_ordinal % 3 == 0:
                hub = _HUBS[correct_ordinal % len(_HUBS)]
                text = (
                    f"The image shows {filler} involving the {organ}; associated "
                    f"{hub} is present. {marker}"
                )
            else:
                text = f"The image shows {filler} of the {organ}. {marker}"
            responses[qid] = text
            correct_ordinal += 1
        else:
            letter = _wrong_letter(_correct_letter(index))
            responses[qid] = (
                "The appearance favors an alternative process over the listed "
                f"diagnosis. Correct Choice:{letter}"
            )
    return responses


def materialize_sample(dest: str | Path) -> SamplePaths:
    """Write images, replay fixture and manifest into ``dest``.

    Deterministic: repeated materializations produce identical bytes. The
    manifest is written last and atomically, so an interrupted run leaves
    no manifest, or an old one, rather than a truncated one.
    """
    dest = Path(dest)
    images_dir = dest / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    png = _tiny_png()
    manifest = sample_manifest()
    for quiz in manifest["quizzes"]:
        for question in quiz["questions"]:
            (dest / question["image"]["path"]).write_bytes(png)
    fixture_path = write_atomic(
        dest / "replay_fixture.json", json.dumps(sample_fixture(), indent=2, sort_keys=True) + "\n"
    )
    manifest_path = write_atomic(dest / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return SamplePaths(manifest=manifest_path, fixture=fixture_path, images_dir=images_dir)
