"""Desk-scale domain-adaptive masked-LM pretraining and text-mining fine-tuning.

The pipeline: load a fixed WordPiece vocabulary, pretrain (or continue
pretraining) a small bidirectional transformer with the masked-LM objective,
then fine-tune minimal task heads for sequence tagging, relation
classification and extractive question answering, with entity-level and
ranked-answer metrics throughout.
"""

__version__ = "0.1.0"

from .vocab import (CONTINUATION_PREFIX, SPECIAL_TOKENS, Vocabulary,
                    load_vocabulary, load_vocabulary_file)
from .tokenizer import (EncodedInput, NO_WORD, basic_tokenize, batch_arrays,
                        encode_pieces, encode_sequence, encode_windows,
                        first_subtokens, split_with_offsets, wordpiece_split)
from .encoder import (EncoderConfig, WeightStore, backward_arrays, expected_shapes,
                      forward_arrays, init_head, init_weights, train_step, truncated_normal)
from .checkpoint import (load_checkpoint, load_checkpoint_file, save_checkpoint,
                         save_checkpoint_file)
from .pretrain import (IGNORE_LABEL, MaskedBatch, MaskingPolicy, PretrainConfig,
                       apply_masking, mlm_loss, pack_documents, read_corpus,
                       seed_stream, subsample_documents, train_mlm)
from .tags import (TagScheme, bio_to_bioes, bioes_to_bio, check_bio, check_bioes,
                   is_valid_bioes, repair_bioes)
from .data import (LabeledSentence, QAExample, RelationExample, RelationLabelSet,
                   bioasq_to_extractive, load_ner_dataset,
                   normalized_occurrences, parse_conll, parse_qa_json,
                   parse_re_tsv, read_bioasq_questions, write_conll,
                   write_qa_json, write_re_tsv)
from .heads import (FinetuneConfig, FinetuneResult, align_labels,
                    anonymize_entities, extract_span, filter_unanswerable,
                    finetune, ner_decode, predict_ner, predict_qa, predict_re)
from .metrics import (EntitySpan, EvalReport, classification_prf,
                      entity_prf, micro_average, normalize_answer, qa_metrics,
                      spans_from_tags)
from .fixtures import FixtureRecipe, generate_fixtures, parse_recipe
from .errors import (ConfigError, ContractViolation, CorruptionError, FormatError,
                     InputError, NoAnswerError, RecipeError, ToolkitError,
                     TransferError)
