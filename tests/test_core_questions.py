"""Tests for question modelling and the natural-language question parser."""

import pytest

from repro.core.questions import (
    ContrastiveQuestion,
    QuestionParseError,
    QuestionType,
    WhatIfConditionQuestion,
    WhatIfIngredientQuestion,
    WhyQuestion,
    parse_question,
)

#: Multi-word, accented and non-English entity names (two FoodOn aliases
#: among them) that the parser must extract intact.
NAMES = ("lait de coco", "bred mouroum", "crème brûlée", "寿司")


class TestQuestionObjects:
    def test_why_question_local_name_matches_paper(self):
        question = WhyQuestion(text="Why should I eat Cauliflower Potato Curry?",
                               recipe="Cauliflower Potato Curry")
        assert question.local_name() == "WhyEatCauliflowerPotatoCurry"
        assert question.question_type is QuestionType.WHY

    def test_contrastive_local_name_matches_paper(self):
        question = ContrastiveQuestion(
            text="Why should I eat Butternut Squash Soup over Broccoli Cheddar Soup?",
            primary="Butternut Squash Soup", secondary="Broccoli Cheddar Soup")
        assert question.local_name() == "WhyEatButternutSquashSoupOverBroccoliCheddarSoup"

    def test_what_if_condition_local_name_matches_paper(self):
        question = WhatIfConditionQuestion(text="What if I was pregnant?", condition="pregnancy")
        assert question.local_name() == "WhatIfIWasPregnancy"

    def test_what_if_ingredient_local_name(self):
        question = WhatIfIngredientQuestion(text="What if we changed cheddar?",
                                            recipe="Broccoli Cheddar Soup",
                                            ingredient="Cheddar Cheese")
        assert "CheddarCheese" in question.local_name()

    def test_questions_are_immutable(self):
        question = WhyQuestion(text="Why?", recipe="Sushi")
        with pytest.raises(AttributeError):
            question.recipe = "Other"


class TestQuestionParsing:
    def test_parse_why_question(self):
        question = parse_question("Why should I eat Cauliflower Potato Curry?")
        assert isinstance(question, WhyQuestion)
        assert question.recipe == "Cauliflower Potato Curry"
        for name in NAMES:
            assert parse_question(f"Why should I eat {name}?").recipe == name

    def test_parse_why_without_question_mark(self):
        question = parse_question("Why should I eat Sushi")
        assert isinstance(question, WhyQuestion)
        assert question.recipe == "Sushi"

    def test_parse_contrastive_over(self):
        question = parse_question(
            "Why should I eat Butternut Squash Soup over a Broccoli Cheddar Soup?")
        assert isinstance(question, ContrastiveQuestion)
        assert question.primary == "Butternut Squash Soup"
        assert question.secondary == "Broccoli Cheddar Soup"
        for name in NAMES:
            question = parse_question(f"Why should I eat {name} over a {name}?")
            assert (question.primary, question.secondary) == (name, name)

    def test_parse_contrastive_recommended_over(self):
        question = parse_question("Why was Sushi recommended over Lentil Soup?")
        assert isinstance(question, ContrastiveQuestion)
        assert question.primary == "Sushi"
        assert question.secondary == "Lentil Soup"

    def test_parse_contrastive_instead_of(self):
        question = parse_question("Why should I eat Lentil Soup instead of Beef Tacos?")
        assert isinstance(question, ContrastiveQuestion)
        assert question.secondary == "Beef Tacos"

    def test_parse_what_if_pregnant(self):
        question = parse_question("What if I was pregnant?")
        assert isinstance(question, WhatIfConditionQuestion)
        assert question.condition == "pregnancy"

    def test_parse_what_if_were_diabetic(self):
        question = parse_question("What if I were diabetic?")
        assert question.condition == "diabetes"

    def test_parse_what_if_lactose_intolerant(self):
        question = parse_question("What if I was lactose intolerant?")
        assert question.condition == "lactose_intolerance"

    def test_parse_what_if_changed_ingredient(self):
        question = parse_question("What if we changed Cheddar Cheese in Broccoli Cheddar Soup?")
        assert isinstance(question, WhatIfIngredientQuestion)
        assert question.ingredient == "Cheddar Cheese"
        assert question.recipe == "Broccoli Cheddar Soup"

    def test_parse_what_if_replaced_with(self):
        question = parse_question("What if we replaced Raw Fish with Tofu in Sushi?")
        assert isinstance(question, WhatIfIngredientQuestion)
        assert question.ingredient == "Raw Fish"
        assert question.replacement == "Tofu"
        for name in NAMES:
            question = parse_question(f"What if we replaced {name} with {name} in {name}?")
            assert (question.ingredient, question.replacement, question.recipe) == \
                (name, name, name)

    def test_parse_case_insensitive(self):
        question = parse_question("WHY SHOULD I EAT SUSHI?")
        assert isinstance(question, WhyQuestion)

    def test_whitespace_normalised(self):
        question = parse_question("  Why   should I eat   Sushi ?")
        assert question.recipe == "Sushi"

    def test_unparseable_text_raises(self):
        # A phrasing that matches but names an empty entity is unparseable too.
        for text in ("Tell me a joke about food", "Why should I eat ?",
                     "Why should I eat ... ?", "Why should I eat Sushi over ?",
                     "What if I was ?", "What if we changed . in Sushi?"):
            with pytest.raises(QuestionParseError):
                parse_question(text)

    def test_original_text_preserved(self):
        text = "Why should I eat Sushi?"
        assert parse_question(text).text == text
