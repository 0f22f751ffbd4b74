"""Tests for the OWL-RL-style reasoner (the Pellet substitute)."""

import pytest

from repro.owl import (
    AxiomIndex,
    ClassHierarchy,
    InconsistentOntologyError,
    PropertyHierarchy,
    Reasoner,
    render_tree,
)
from repro.owl.vocabulary import RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal

EX = "http://example.org/"


def ex(name):
    return IRI(EX + name)


def reason(ttl: str) -> Graph:
    graph = Graph()
    graph.bind("ex", EX)
    graph.parse(
        "@prefix ex: <http://example.org/> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n" + ttl
    )
    return Reasoner(graph).run()


class TestRdfsRules:
    def test_subclass_transitivity(self):
        inferred = reason("""
        ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .
        """)
        assert (ex("A"), RDFS_SUBCLASSOF, ex("C")) in inferred

    def test_type_propagation_through_subclass(self):
        inferred = reason("""
        ex:Cat rdfs:subClassOf ex:Mammal . ex:Mammal rdfs:subClassOf ex:Animal .
        ex:felix a ex:Cat .
        """)
        assert (ex("felix"), RDF_TYPE, ex("Mammal")) in inferred
        assert (ex("felix"), RDF_TYPE, ex("Animal")) in inferred

    def test_subproperty_transitivity_and_propagation(self):
        inferred = reason("""
        ex:hasMother rdfs:subPropertyOf ex:hasParent .
        ex:hasParent rdfs:subPropertyOf ex:hasAncestor .
        ex:amy ex:hasMother ex:beth .
        """)
        assert (ex("hasMother"), RDFS_SUBPROPERTYOF, ex("hasAncestor")) in inferred
        assert (ex("amy"), ex("hasParent"), ex("beth")) in inferred
        assert (ex("amy"), ex("hasAncestor"), ex("beth")) in inferred

    def test_domain_and_range_typing(self):
        inferred = reason("""
        ex:teaches rdfs:domain ex:Teacher . ex:teaches rdfs:range ex:Course .
        ex:ann ex:teaches ex:math101 .
        """)
        assert (ex("ann"), RDF_TYPE, ex("Teacher")) in inferred
        assert (ex("math101"), RDF_TYPE, ex("Course")) in inferred

    def test_range_not_applied_to_literals(self):
        inferred = reason("""
        ex:label rdfs:range ex:Name .
        ex:ann ex:label "Ann" .
        """)
        assert not list(inferred.triples((None, RDF_TYPE, ex("Name"))))


class TestOwlPropertyRules:
    def test_inverse_of(self):
        inferred = reason("""
        ex:hasChild owl:inverseOf ex:hasParent .
        ex:ann ex:hasChild ex:bo .
        """)
        assert (ex("bo"), ex("hasParent"), ex("ann")) in inferred

    def test_inverse_is_symmetric_declaration(self):
        inferred = reason("""
        ex:hasChild owl:inverseOf ex:hasParent .
        ex:bo ex:hasParent ex:ann .
        """)
        assert (ex("ann"), ex("hasChild"), ex("bo")) in inferred

    def test_symmetric_property(self):
        inferred = reason("""
        ex:marriedTo a owl:SymmetricProperty .
        ex:ann ex:marriedTo ex:bo .
        """)
        assert (ex("bo"), ex("marriedTo"), ex("ann")) in inferred

    def test_transitive_property(self):
        inferred = reason("""
        ex:partOf a owl:TransitiveProperty .
        ex:finger ex:partOf ex:hand . ex:hand ex:partOf ex:arm . ex:arm ex:partOf ex:body .
        """)
        assert (ex("finger"), ex("partOf"), ex("arm")) in inferred
        assert (ex("finger"), ex("partOf"), ex("body")) in inferred

    def test_property_chain(self):
        inferred = reason("""
        ex:hasUncle owl:propertyChainAxiom ( ex:hasParent ex:hasBrother ) .
        ex:kid ex:hasParent ex:mum . ex:mum ex:hasBrother ex:uncle .
        """)
        assert (ex("kid"), ex("hasUncle"), ex("uncle")) in inferred

    def test_equivalent_property(self):
        inferred = reason("""
        ex:cost owl:equivalentProperty ex:price .
        ex:item ex:cost ex:tenDollars .
        """)
        assert (ex("item"), ex("price"), ex("tenDollars")) in inferred


class TestClassification:
    def test_has_value_classification(self):
        inferred = reason("""
        ex:RedThing owl:equivalentClass [ a owl:Restriction ;
            owl:onProperty ex:color ; owl:hasValue ex:red ] .
        ex:apple ex:color ex:red .
        ex:sky ex:color ex:blue .
        """)
        assert (ex("apple"), RDF_TYPE, ex("RedThing")) in inferred
        assert (ex("sky"), RDF_TYPE, ex("RedThing")) not in inferred

    def test_has_value_consequence_direction(self):
        inferred = reason("""
        ex:RedThing rdfs:subClassOf [ a owl:Restriction ;
            owl:onProperty ex:color ; owl:hasValue ex:red ] .
        ex:cherry a ex:RedThing .
        """)
        assert (ex("cherry"), ex("color"), ex("red")) in inferred

    def test_some_values_from_classification(self):
        inferred = reason("""
        ex:Parent owl:equivalentClass [ a owl:Restriction ;
            owl:onProperty ex:hasChild ; owl:someValuesFrom ex:Person ] .
        ex:kid a ex:Person .
        ex:ann ex:hasChild ex:kid .
        ex:rock ex:hasChild ex:pebble .
        """)
        assert (ex("ann"), RDF_TYPE, ex("Parent")) in inferred
        assert (ex("rock"), RDF_TYPE, ex("Parent")) not in inferred

    def test_intersection_classification(self):
        inferred = reason("""
        ex:WorkingParent owl:equivalentClass [ owl:intersectionOf ( ex:Parent ex:Worker ) ] .
        ex:ann a ex:Parent , ex:Worker .
        ex:bo a ex:Parent .
        """)
        assert (ex("ann"), RDF_TYPE, ex("WorkingParent")) in inferred
        assert (ex("bo"), RDF_TYPE, ex("WorkingParent")) not in inferred

    def test_intersection_decomposition(self):
        inferred = reason("""
        ex:WorkingParent owl:equivalentClass [ owl:intersectionOf ( ex:Parent ex:Worker ) ] .
        ex:cat a ex:WorkingParent .
        """)
        assert (ex("cat"), RDF_TYPE, ex("Parent")) in inferred
        assert (ex("cat"), RDF_TYPE, ex("Worker")) in inferred

    def test_union_classification(self):
        inferred = reason("""
        ex:Pet owl:equivalentClass [ owl:unionOf ( ex:Cat ex:Dog ) ] .
        ex:rex a ex:Dog .
        ex:tree a ex:Plant .
        """)
        assert (ex("rex"), RDF_TYPE, ex("Pet")) in inferred
        assert (ex("tree"), RDF_TYPE, ex("Pet")) not in inferred

    def test_all_values_from_consequence(self):
        inferred = reason("""
        ex:DogOwner rdfs:subClassOf [ a owl:Restriction ;
            owl:onProperty ex:hasPet ; owl:allValuesFrom ex:Dog ] .
        ex:ann a ex:DogOwner . ex:ann ex:hasPet ex:rex .
        """)
        assert (ex("rex"), RDF_TYPE, ex("Dog")) in inferred

    def test_one_of_classification(self):
        inferred = reason("""
        ex:PrimaryColor owl:equivalentClass [ owl:oneOf ( ex:red ex:green ex:blue ) ] .
        ex:red ex:isA ex:thing .
        """)
        assert (ex("red"), RDF_TYPE, ex("PrimaryColor")) in inferred

    def test_restriction_subclass_of_named_class(self):
        inferred = reason("""
        [ a owl:Restriction ; owl:onProperty ex:wearsCollar ; owl:hasValue true ]
            rdfs:subClassOf ex:Pet .
        ex:rex ex:wearsCollar true .
        """)
        assert (ex("rex"), RDF_TYPE, ex("Pet")) in inferred

    def test_named_equivalence_is_mutual_subclass(self):
        inferred = reason("""
        ex:Human owl:equivalentClass ex:Person .
        ex:ann a ex:Human .
        """)
        assert (ex("ann"), RDF_TYPE, ex("Person")) in inferred


class TestPerRuleRegression:
    """Minimal graphs per rule family, pinning the exact inferred triple set
    and the :class:`ReasoningReport` rule-firing counts.

    These fixtures freeze the semi-naive engine's per-rule behaviour: any
    change to what a rule derives *or* to how its firings are attributed
    shows up here before it can hide inside a large closure.
    """

    @staticmethod
    def infer(ttl: str):
        graph = Graph()
        graph.bind("ex", EX)
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n" + ttl
        )
        reasoner = Reasoner(graph)
        closed = reasoner.run()
        return set(closed) - set(graph), reasoner.report

    def test_subclass_transitivity_and_type_propagation(self):
        inferred, report = self.infer("""
        ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .
        ex:x a ex:A .
        """)
        assert inferred == {
            (ex("A"), RDFS_SUBCLASSOF, ex("C")),
            (ex("x"), RDF_TYPE, ex("B")),
            (ex("x"), RDF_TYPE, ex("C")),
        }
        assert report.rule_firings == {"schema-closure": 1, "subClassOf-types": 2}

    def test_subproperty_closure_and_propagation(self):
        inferred, report = self.infer("""
        ex:hasMother rdfs:subPropertyOf ex:hasParent .
        ex:hasParent rdfs:subPropertyOf ex:hasAncestor .
        ex:amy ex:hasMother ex:beth .
        """)
        assert inferred == {
            (ex("hasMother"), RDFS_SUBPROPERTYOF, ex("hasAncestor")),
            (ex("amy"), ex("hasParent"), ex("beth")),
            (ex("amy"), ex("hasAncestor"), ex("beth")),
        }
        assert report.rule_firings == {"schema-closure": 1, "subPropertyOf": 2}

    def test_inverse_property(self):
        inferred, report = self.infer("""
        ex:hasChild owl:inverseOf ex:hasParent .
        ex:ann ex:hasChild ex:bo .
        """)
        assert inferred == {(ex("bo"), ex("hasParent"), ex("ann"))}
        assert report.rule_firings == {"inverseOf": 1}

    def test_symmetric_property(self):
        inferred, report = self.infer("""
        ex:marriedTo a owl:SymmetricProperty .
        ex:ann ex:marriedTo ex:bo .
        """)
        assert inferred == {(ex("bo"), ex("marriedTo"), ex("ann"))}
        assert report.rule_firings == {"symmetric": 1}

    def test_transitive_property_closure(self):
        inferred, report = self.infer("""
        ex:partOf a owl:TransitiveProperty .
        ex:a ex:partOf ex:b . ex:b ex:partOf ex:c . ex:c ex:partOf ex:d .
        """)
        assert inferred == {
            (ex("a"), ex("partOf"), ex("c")),
            (ex("a"), ex("partOf"), ex("d")),
            (ex("b"), ex("partOf"), ex("d")),
        }
        assert report.rule_firings == {"transitive": 3}

    def test_property_chain(self):
        inferred, report = self.infer("""
        ex:hasUncle owl:propertyChainAxiom ( ex:hasParent ex:hasBrother ) .
        ex:kid ex:hasParent ex:mum . ex:mum ex:hasBrother ex:uncle .
        """)
        assert inferred == {(ex("kid"), ex("hasUncle"), ex("uncle"))}
        assert report.rule_firings == {"propertyChain": 1}

    def test_domain_and_range(self):
        inferred, report = self.infer("""
        ex:teaches rdfs:domain ex:Teacher . ex:teaches rdfs:range ex:Course .
        ex:ann ex:teaches ex:math101 .
        """)
        assert inferred == {
            (ex("ann"), RDF_TYPE, ex("Teacher")),
            (ex("math101"), RDF_TYPE, ex("Course")),
        }
        assert report.rule_firings == {"domain-range": 2}

    def test_has_value_classification(self):
        inferred, report = self.infer("""
        ex:RedThing owl:equivalentClass [ a owl:Restriction ;
            owl:onProperty ex:color ; owl:hasValue ex:red ] .
        ex:apple ex:color ex:red .
        """)
        assert inferred == {(ex("apple"), RDF_TYPE, ex("RedThing"))}
        assert report.rule_firings == {"classification": 1}

    def test_some_values_from_classification(self):
        inferred, report = self.infer("""
        ex:Parent owl:equivalentClass [ a owl:Restriction ;
            owl:onProperty ex:hasChild ; owl:someValuesFrom ex:Person ] .
        ex:kid a ex:Person .
        ex:ann ex:hasChild ex:kid .
        """)
        assert inferred == {(ex("ann"), RDF_TYPE, ex("Parent"))}
        assert report.rule_firings == {"classification": 1}

    def test_all_values_from_consequence(self):
        inferred, report = self.infer("""
        ex:DogOwner rdfs:subClassOf [ a owl:Restriction ;
            owl:onProperty ex:hasPet ; owl:allValuesFrom ex:Dog ] .
        ex:ann a ex:DogOwner . ex:ann ex:hasPet ex:rex .
        """)
        assert inferred == {(ex("rex"), RDF_TYPE, ex("Dog"))}
        assert report.rule_firings == {"restriction-consequences": 1}

    def test_rule_interplay_chain_through_inverse(self):
        """A derived (inverse) edge must feed the chain rule in a later round."""
        inferred, report = self.infer("""
        ex:childOf owl:inverseOf ex:hasChild .
        ex:hasGrandparent owl:propertyChainAxiom ( ex:childOf ex:childOf ) .
        ex:gran ex:hasChild ex:mum . ex:mum ex:hasChild ex:kid .
        """)
        assert inferred == {
            (ex("mum"), ex("childOf"), ex("gran")),
            (ex("kid"), ex("childOf"), ex("mum")),
            (ex("kid"), ex("hasGrandparent"), ex("gran")),
        }
        assert report.rule_firings == {"inverseOf": 2, "propertyChain": 1}


class TestReasonerBehaviour:
    def test_report_statistics(self):
        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "ex:A rdfs:subClassOf ex:B . ex:x a ex:A ."
        )
        reasoner = Reasoner(graph)
        closed = reasoner.run()
        assert reasoner.report.input_triples == 2
        assert reasoner.report.inferred_triples == len(closed) - 2
        assert reasoner.report.iterations >= 1

    def test_base_graph_not_mutated(self):
        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "ex:A rdfs:subClassOf ex:B . ex:x a ex:A ."
        )
        before = len(graph)
        Reasoner(graph).run()
        assert len(graph) == before

    def test_inferred_only_excludes_asserted(self):
        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "ex:A rdfs:subClassOf ex:B . ex:x a ex:A ."
        )
        delta = Reasoner(graph).inferred_only()
        assert (ex("x"), RDF_TYPE, ex("A")) not in delta
        assert (ex("x"), RDF_TYPE, ex("B")) in delta

    def test_idempotent_on_closed_graph(self):
        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "ex:partOf a owl:TransitiveProperty .\n"
            "ex:a ex:partOf ex:b . ex:b ex:partOf ex:c ."
        )
        closed_once = Reasoner(graph).run()
        closed_twice = Reasoner(closed_once).run()
        assert set(closed_once) == set(closed_twice)

    def test_disjointness_violation_raises(self):
        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "ex:Meat owl:disjointWith ex:Vegetable .\n"
            "ex:weird a ex:Meat , ex:Vegetable ."
        )
        with pytest.raises(InconsistentOntologyError):
            Reasoner(graph).run()

    def test_consistency_check_can_be_disabled(self):
        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "ex:Meat owl:disjointWith ex:Vegetable .\n"
            "ex:weird a ex:Meat , ex:Vegetable ."
        )
        closed = Reasoner(graph, check_consistency=False).run()
        assert len(closed) >= len(graph)


class TestAxiomIndex:
    def test_superclass_closure(self):
        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C ."
        )
        index = AxiomIndex.from_graph(graph)
        assert index.superclass_closure(ex("A")) == {ex("A"), ex("B"), ex("C")}

    def test_subclasses_of(self):
        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C ."
        )
        index = AxiomIndex.from_graph(graph)
        assert index.subclasses_of(ex("C")) == {ex("A"), ex("B")}

    def test_superproperty_closure(self):
        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "ex:p rdfs:subPropertyOf ex:q . ex:q rdfs:subPropertyOf ex:r ."
        )
        index = AxiomIndex.from_graph(graph)
        assert index.superproperty_closure(ex("p")) == {ex("p"), ex("q"), ex("r")}


class TestHierarchies:
    @pytest.fixture
    def hierarchy_graph(self):
        return reason("""
        ex:Season rdfs:subClassOf ex:SystemCharacteristic .
        ex:Location rdfs:subClassOf ex:SystemCharacteristic .
        ex:SystemCharacteristic rdfs:subClassOf ex:Characteristic .
        ex:UserCharacteristic rdfs:subClassOf ex:Characteristic .
        ex:likes rdfs:subPropertyOf ex:hasCharacteristic .
        """)

    def test_class_children_and_parents(self, hierarchy_graph):
        hierarchy = ClassHierarchy(hierarchy_graph)
        assert ex("SystemCharacteristic") in hierarchy.children(ex("Characteristic"))
        assert ex("Characteristic") in hierarchy.parents(ex("SystemCharacteristic"))

    def test_ancestors_descendants(self, hierarchy_graph):
        hierarchy = ClassHierarchy(hierarchy_graph)
        assert ex("Characteristic") in hierarchy.ancestors(ex("Season"))
        assert ex("Season") in hierarchy.descendants(ex("Characteristic"))

    def test_direct_children_excludes_grandchildren(self, hierarchy_graph):
        hierarchy = ClassHierarchy(hierarchy_graph)
        direct = hierarchy.direct_children(ex("Characteristic"))
        assert ex("Season") not in direct
        assert ex("SystemCharacteristic") in direct

    def test_is_a(self, hierarchy_graph):
        hierarchy = ClassHierarchy(hierarchy_graph)
        assert hierarchy.is_a(ex("Season"), ex("Characteristic"))
        assert not hierarchy.is_a(ex("Characteristic"), ex("Season"))

    def test_tree_and_rendering(self, hierarchy_graph):
        hierarchy = ClassHierarchy(hierarchy_graph)
        tree = hierarchy.tree(ex("Characteristic"))
        text = render_tree(tree)
        assert "Characteristic" in text and "Season" in text

    def test_property_hierarchy(self, hierarchy_graph):
        hierarchy = PropertyHierarchy(hierarchy_graph)
        assert ex("likes") in hierarchy.children(ex("hasCharacteristic"))


class TestDeltaDirectedClassification:
    """An extension re-tests only the individuals its delta can reclassify,
    and the report says where the time went."""

    @staticmethod
    def profile_update_report(extra_recipes, monkeypatch):
        """The extension report of a diet + like + allergy update of the
        paper persona's CQ1 scenario over a generated catalog."""
        from repro.core.engine import ExplanationEngine
        from repro.core.questions import parse_question
        from repro.foodkg.generator import generate_catalog
        from repro.users.personas import persona

        engine = ExplanationEngine(catalog=generate_catalog(
            extra_recipes=extra_recipes, extra_ingredients=extra_recipes // 2))
        builder = engine.builder
        user, context = persona("paper")
        scenario = builder.build(
            parse_question("Why should I eat Cauliflower Potato Curry?"), user, context)
        reports = []
        extend = Reasoner.extend

        def recording_extend(reasoner, closure, added):
            result = extend(reasoner, closure, added)
            reports.append(reasoner.report)
            return result

        monkeypatch.setattr(Reasoner, "extend", recording_extend)
        updated = builder.update_scenario(
            scenario, diets=("vegan",), likes=("Butternut Squash Soup",),
            allergies=("Butter",))
        assert len(set(updated.asserted) - set(scenario.asserted)) == 3
        (report,) = reports
        return report

    def test_profile_update_checks_few_individuals_at_any_catalog_size(self, monkeypatch):
        small = self.profile_update_report(100, monkeypatch)
        monkeypatch.undo()
        large = self.profile_update_report(400, monkeypatch)
        assert 0 < small.classification_checks <= 50
        assert large.classification_checks == small.classification_checks
        assert small.rule_firings["classification"] > 0

    def test_report_times_every_rule_family(self):
        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "ex:Owner owl:equivalentClass [ a owl:Restriction ;\n"
            "    owl:onProperty ex:owns ; owl:someValuesFrom ex:Pet ] .\n"
            "ex:ann ex:owns ex:rex . ex:rex a ex:Pet . ex:bob ex:owns ex:rock .\n"
        )
        reasoner = Reasoner(graph)
        closed = reasoner.run()
        assert (ex("ann"), RDF_TYPE, ex("Owner")) in closed
        report = reasoner.report
        assert set(report.rule_seconds) == {
            "property", "type", "classification", "consequences"}
        assert all(seconds >= 0.0 for seconds in report.rule_seconds.values())
        # The first round tests all 8 nodes the naive pass would (the data
        # individuals, and the axiom's class, restriction, property and
        # filler); the second round's delta, ann's new type, can change no
        # membership in ∃owns.Pet, so it tests nobody.
        assert report.classification_checks == 8

        reasoner.extend(closed, [(ex("bob"), ex("owns"), ex("tom")),
                                 (ex("tom"), RDF_TYPE, ex("Pet"))])
        assert (ex("bob"), RDF_TYPE, ex("Owner")) in closed
        assert reasoner.report.classification_checks == 1


class TestSharedRuleTables:
    """A base closure's reasoners share one set of rule tables, built on the
    first request rather than at construction."""

    @pytest.fixture
    def base(self):
        from repro.owl import BaseClosure

        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "ex:Owner owl:equivalentClass [ a owl:Restriction ;\n"
            "    owl:onProperty ex:owns ; owl:someValuesFrom ex:Pet ] .\n"
            "ex:rex a ex:Pet .\n"
        )
        return BaseClosure(graph)

    @staticmethod
    def scenario(base, *triples):
        graph = base.base.copy()
        graph.addN(triples)
        return graph

    def test_tables_are_built_lazily_and_shared(self, base):
        assert base._tables is None
        first = base.reasoner(self.scenario(base, (ex("ann"), ex("owns"), ex("rex"))))
        second = base.reasoner(self.scenario(base, (ex("bob"), ex("owns"), ex("rex"))))
        assert first._rule_tables() is second._rule_tables() is base.tables()
        closed = second.run()
        assert (ex("bob"), RDF_TYPE, ex("Owner")) in closed
        assert base.tables().encoded(closed.dictionary) is \
            first._rule_tables().encoded(closed.dictionary)

    def test_a_schema_delta_builds_tables_of_its_own(self, base):
        shared = base.tables()
        graph = self.scenario(base, (ex("Pet"), RDFS_SUBCLASSOF, ex("Animal")),
                              (ex("ann"), ex("owns"), ex("rex")))
        reasoner = base.reasoner(graph)
        closed = reasoner.run()
        assert (ex("rex"), RDF_TYPE, ex("Animal")) in closed
        assert (ex("ann"), RDF_TYPE, ex("Owner")) in closed
        assert reasoner._rule_tables() is not shared
        assert base.tables() is shared
        assert ex("Pet") not in shared.axioms.named_subclass_of

    def test_racing_first_requests_get_correct_closures(self, base):
        """Eight threads race to build the tables and the base closure:
        each extension still equals a full run of its own graph."""
        import sys
        import threading

        graphs = [self.scenario(base, (ex(f"user{n}"), ex("owns"), ex("rex")),
                                (ex(f"pet{n}"), RDF_TYPE, ex("Pet")),
                                (ex("ann"), ex("owns"), ex(f"pet{n}")))
                  for n in range(8)]
        closures = [None] * len(graphs)
        barrier = threading.Barrier(len(graphs))

        def work(n):
            barrier.wait(timeout=30)
            closures[n] = base.reasoner(graphs[n]).run()

        threads = [threading.Thread(target=work, args=(n,), daemon=True)
                   for n in range(len(graphs))]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        for graph, closed in zip(graphs, closures):
            assert set(closed) == set(Reasoner(graph).run())
        assert base._tables is not None


class TestBaseClosureDelta:
    """``BaseClosure.delta`` walks the graph's SPO index, skipping the
    entries a COW copy still shares with the frozen base; it must find
    the same extra triples whether or not anything is shared, and refuse
    every graph that is not a superset of the base."""

    EXTRA = [(ex("ann"), ex("owns"), ex("tom")),      # existing subject and predicate
             (ex("ann"), ex("likes"), ex("rex")),     # existing subject, new predicate
             (ex("tom"), RDF_TYPE, ex("Pet"))]        # new subject

    @pytest.fixture
    def base(self):
        from repro.owl import BaseClosure

        graph = Graph()
        graph.parse(
            "@prefix ex: <http://example.org/> .\n"
            "ex:Pet a <http://www.w3.org/2002/07/owl#Class> .\n"
            "ex:ann ex:owns ex:rex ; ex:name \"Ann\" . ex:rex a ex:Pet .\n"
            "ex:bob ex:owns ex:rex .\n"
        )
        return BaseClosure(graph)

    def test_the_base_itself_has_an_empty_delta(self, base):
        assert base.delta(base.base) == []

    def test_superset_built_by_copy(self, base):
        graph = base.base.copy()
        graph.addN(self.EXTRA)
        assert set(base.delta(graph)) == set(self.EXTRA)
        # bob's entry is still the base's own object: skipped, not walked.
        bob = graph.dictionary.lookup(ex("bob"))
        assert graph._spo[bob] is base.base._spo[bob]

    def test_superset_built_fresh_shares_nothing(self, base):
        graph = base.base - Graph()  # a same-family graph with fresh entries
        graph.addN(self.EXTRA)
        assert not any(entry is base.base._spo.get(s) for s, entry in graph._spo.items())
        assert set(base.delta(graph)) == set(self.EXTRA)

    @pytest.mark.parametrize("build", ["copy", "fresh"])
    def test_same_size_non_superset_is_refused(self, base, build):
        graph = base.base.copy() if build == "copy" else base.base - Graph()
        graph.remove((ex("bob"), ex("owns"), ex("rex")))
        graph.add((ex("bob"), ex("owns"), ex("tom")))
        assert len(graph) == len(base.base)
        assert base.delta(graph) is None

    def test_a_subset_or_another_family_is_refused(self, base):
        smaller = base.base.copy()
        smaller.remove((ex("ann"), ex("name"), None))
        assert base.delta(smaller) is None
        other = Graph()
        other.addN(base.base)
        other.addN(self.EXTRA)
        assert base.delta(other) is None
