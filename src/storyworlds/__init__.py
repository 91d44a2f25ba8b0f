"""Possible-worlds analysis of story timelines.

Parse story files into timelines of asserted propositions, enumerate the
worlds consistent with each step, simulate narrator-to-reader conveyance
through lossy channels, and compute plausibility and coherence metrics over
the resulting world sets.

The package exports nothing itself: import each name from its module
(``storyworlds.story``, ``storyworlds.conveyance``, ...).
"""
