//! Synthetic WikiMovies-style knowledge base and questions (substitute for the
//! WikiMovies dataset used by the Key-Value Memory Network workload, Section VI-A).
//!
//! A knowledge base is a list of `(movie, relation, object)` facts; each question asks
//! about one `(movie, relation)` pair and its answer is the set of objects of the
//! matching facts (several, for the `starred_actors` relation). The paper reports an
//! average of `n = 186` potentially relevant facts per query, which the default
//! generator reproduces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::vocab::{FILM_PEOPLE, GENRES, MOVIES, YEARS};

/// A relation between a movie and an entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Relation {
    /// The movie's director.
    DirectedBy,
    /// The movie's screenwriter.
    WrittenBy,
    /// One of the movie's leading actors (movies have several).
    StarredActors,
    /// The movie's genre.
    HasGenre,
    /// The movie's release year.
    ReleaseYear,
}

impl Relation {
    /// All relations, in generation order.
    pub const ALL: [Relation; 5] = [
        Relation::DirectedBy,
        Relation::WrittenBy,
        Relation::StarredActors,
        Relation::HasGenre,
        Relation::ReleaseYear,
    ];

    /// Tokens used to embed the relation (also used to phrase the question).
    pub fn tokens(&self) -> &'static [&'static str] {
        match self {
            Relation::DirectedBy => &["directed", "by"],
            Relation::WrittenBy => &["written", "by"],
            Relation::StarredActors => &["starred", "actors"],
            Relation::HasGenre => &["has", "genre"],
            Relation::ReleaseYear => &["release", "year"],
        }
    }

    /// Question phrasing for this relation.
    pub fn question_tokens(&self) -> &'static [&'static str] {
        match self {
            Relation::DirectedBy => &["who", "directed"],
            Relation::WrittenBy => &["who", "wrote"],
            Relation::StarredActors => &["who", "starred", "in"],
            Relation::HasGenre => &["what", "genre", "is"],
            Relation::ReleaseYear => &["when", "was", "released"],
        }
    }
}

/// One `(movie, relation, object)` fact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MovieFact {
    /// Movie title.
    pub movie: String,
    /// Relation.
    pub relation: Relation,
    /// Object entity (person, genre or year).
    pub object: String,
}

/// A question about one `(movie, relation)` pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MovieQuestion {
    /// Movie the question is about.
    pub movie: String,
    /// Relation the question asks for.
    pub relation: Relation,
    /// All correct answers (one entity for most relations, several actors for
    /// `StarredActors`).
    pub answers: Vec<String>,
    /// Indices into the knowledge base of the facts that answer this question.
    pub supporting_facts: Vec<usize>,
}

/// A knowledge base plus the questions generated against it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WikiMoviesKb {
    /// All facts, in a fixed order (this order defines the memory-row indices).
    pub facts: Vec<MovieFact>,
    /// Questions answerable from `facts`.
    pub questions: Vec<MovieQuestion>,
}

impl WikiMoviesKb {
    /// Number of facts (`n` for the attention operation).
    pub fn n(&self) -> usize {
        self.facts.len()
    }

    /// All entities that can appear as an answer (the candidate set for ranking).
    pub fn candidate_entities() -> Vec<&'static str> {
        FILM_PEOPLE
            .iter()
            .chain(GENRES.iter())
            .chain(YEARS.iter())
            .copied()
            .collect()
    }
}

/// Deterministic generator of WikiMovies-style knowledge bases.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WikiMoviesGenerator {
    seed: u64,
    movies_per_kb: usize,
    actors_per_movie: usize,
}

impl WikiMoviesGenerator {
    /// Creates a generator whose knowledge bases have roughly the paper's average
    /// `n = 186` facts (27 movies x 7 facts = 189).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            movies_per_kb: 27,
            actors_per_movie: 3,
        }
    }

    /// Creates a generator with an explicit knowledge-base size.
    ///
    /// # Panics
    ///
    /// Panics if `movies_per_kb` or `actors_per_movie` is zero.
    pub fn with_size(seed: u64, movies_per_kb: usize, actors_per_movie: usize) -> Self {
        assert!(
            movies_per_kb >= 1 && actors_per_movie >= 1,
            "sizes must be positive"
        );
        Self {
            seed,
            movies_per_kb,
            actors_per_movie,
        }
    }

    /// Generates the `index`-th knowledge base (with its questions).
    pub fn generate(&self, index: usize) -> WikiMoviesKb {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut facts = Vec::new();
        let mut questions = Vec::new();
        // Pick distinct movies for this KB (cycling through the vocabulary with a
        // disambiguating suffix when more movies than titles are requested).
        for m in 0..self.movies_per_kb {
            let title_base = MOVIES[m % MOVIES.len()];
            let movie = if m < MOVIES.len() {
                title_base.to_owned()
            } else {
                format!("{title_base}_{}", m / MOVIES.len() + 1)
            };
            let director = FILM_PEOPLE[rng.gen_range(0..FILM_PEOPLE.len())].to_owned();
            let writer = FILM_PEOPLE[rng.gen_range(0..FILM_PEOPLE.len())].to_owned();
            let genre = GENRES[rng.gen_range(0..GENRES.len())].to_owned();
            let year = YEARS[rng.gen_range(0..YEARS.len())].to_owned();
            let mut actors = Vec::new();
            while actors.len() < self.actors_per_movie {
                let actor = FILM_PEOPLE[rng.gen_range(0..FILM_PEOPLE.len())].to_owned();
                if !actors.contains(&actor) {
                    actors.push(actor);
                }
            }

            let mut fact_indices: Vec<(Relation, Vec<usize>, Vec<String>)> = Vec::new();
            let push_fact =
                |facts: &mut Vec<MovieFact>, relation: Relation, object: &str| -> usize {
                    facts.push(MovieFact {
                        movie: movie.clone(),
                        relation,
                        object: object.to_owned(),
                    });
                    facts.len() - 1
                };
            let idx = push_fact(&mut facts, Relation::DirectedBy, &director);
            fact_indices.push((Relation::DirectedBy, vec![idx], vec![director.clone()]));
            let idx = push_fact(&mut facts, Relation::WrittenBy, &writer);
            fact_indices.push((Relation::WrittenBy, vec![idx], vec![writer.clone()]));
            let mut actor_idxs = Vec::new();
            for a in &actors {
                actor_idxs.push(push_fact(&mut facts, Relation::StarredActors, a));
            }
            fact_indices.push((Relation::StarredActors, actor_idxs, actors.clone()));
            let idx = push_fact(&mut facts, Relation::HasGenre, &genre);
            fact_indices.push((Relation::HasGenre, vec![idx], vec![genre.clone()]));
            let idx = push_fact(&mut facts, Relation::ReleaseYear, &year);
            fact_indices.push((Relation::ReleaseYear, vec![idx], vec![year.clone()]));

            // One question per movie, cycling through the relations so the question mix
            // is balanced.
            let (relation, supporting, answers) = fact_indices[m % fact_indices.len()].clone();
            questions.push(MovieQuestion {
                movie: movie.clone(),
                relation,
                answers,
                supporting_facts: supporting,
            });
        }
        WikiMoviesKb { facts, questions }
    }
}

impl Default for WikiMoviesGenerator {
    fn default() -> Self {
        Self::new(0x4B13)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kb_size_matches_paper_average() {
        let kb = WikiMoviesGenerator::new(1).generate(0);
        assert_eq!(kb.n(), 27 * 7); // 189 ≈ the paper's average of 186
        assert_eq!(kb.questions.len(), 27);
    }

    #[test]
    fn generation_is_deterministic() {
        let g = WikiMoviesGenerator::new(5);
        assert_eq!(g.generate(2), g.generate(2));
        assert_ne!(g.generate(2), g.generate(3));
    }

    #[test]
    fn questions_are_answerable_from_their_supporting_facts() {
        let kb = WikiMoviesGenerator::new(9).generate(0);
        for q in &kb.questions {
            assert!(!q.answers.is_empty());
            assert_eq!(q.answers.len(), q.supporting_facts.len());
            for (&fi, answer) in q.supporting_facts.iter().zip(&q.answers) {
                let fact = &kb.facts[fi];
                assert_eq!(fact.movie, q.movie);
                assert_eq!(fact.relation, q.relation);
                assert_eq!(&fact.object, answer);
            }
        }
    }

    #[test]
    fn starred_actors_questions_have_multiple_answers() {
        let kb = WikiMoviesGenerator::new(2).generate(0);
        let actor_q = kb
            .questions
            .iter()
            .find(|q| q.relation == Relation::StarredActors)
            .expect("balanced question mix includes an actors question");
        assert_eq!(actor_q.answers.len(), 3);
    }

    #[test]
    fn custom_size_controls_n() {
        let kb = WikiMoviesGenerator::with_size(1, 10, 2).generate(0);
        assert_eq!(kb.n(), 10 * 6);
    }

    #[test]
    fn candidate_entities_cover_all_answers() {
        let kb = WikiMoviesGenerator::new(3).generate(1);
        let candidates = WikiMoviesKb::candidate_entities();
        for q in &kb.questions {
            for a in &q.answers {
                assert!(
                    candidates.contains(&a.as_str()),
                    "answer {a} not in candidates"
                );
            }
        }
    }

    #[test]
    fn relation_tokens_are_nonempty() {
        for r in Relation::ALL {
            assert!(!r.tokens().is_empty());
            assert!(!r.question_tokens().is_empty());
        }
    }
}
