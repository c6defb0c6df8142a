"""Teacher and student models.

* :class:`StudentNet` — the paper's Figure 3 student: a tiny fully
  convolutional network of six "student blocks" with two skip concats.
* :class:`TeacherNet` — a genuinely larger FCN, the label source of
  ``teacher_arch="neural"`` sessions.
* :class:`OracleTeacher` — the default evaluation teacher: returns the
  scene's rendered label (plus optional boundary noise), standing in for
  Mask R-CNN exactly as the LVS labels do in the paper.
"""

from repro.models.student import StudentBlock, StudentNet, partial_freeze
from repro.models.teacher import TeacherNet, OracleTeacher, Teacher
from repro.models.pretrain import pretrain_student, PretrainResult

__all__ = [
    "StudentBlock",
    "StudentNet",
    "partial_freeze",
    "TeacherNet",
    "OracleTeacher",
    "Teacher",
    "pretrain_student",
    "PretrainResult",
]
